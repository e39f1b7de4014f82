package transport

import (
	"slices"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// sender is the congestion-control logic attached to one connection. The
// conn provides the mechanism (segmentation, pacing or windowing, receiver
// bookkeeping, retransmission); the sender provides the policy.
type sender interface {
	// start is called once when the flow becomes available at the sender.
	start(c *conn)
	// onAck is called when an acknowledgment for a data segment arrives.
	onAck(c *conn, ack *sim.Packet, rttSample float64)
	// onLoss is called when a data segment of this flow is known lost
	// (dropped in the network or retransmission timer fired).
	onLoss(c *conn)
}

// conn is one flow's endpoint state: the sender side at the source server and
// the receiver side at the destination server. All times are simulator times.
type conn struct {
	eng  *Engine
	id   int64
	src  int
	dst  int
	size int64

	fwdPath []int32
	revPath []int32
	baseRTT float64

	// Sender state.
	snd           sender
	nextSeq       int64         // next new payload byte to send
	ackedBytes    int64         // total payload bytes acknowledged
	unacked       map[int64]int // segment start -> payload length
	inflight      int64         // bytes sent but not yet acknowledged
	cwnd          float64       // congestion window in bytes (window schemes)
	paceRate      float64       // pacing rate in bits/s (rate schemes); 0 disables pacing
	pacing        bool          // a pacing send is scheduled
	ecnCapable    bool          // set ECN-capable on data packets
	senderDone    bool          // all bytes acknowledged
	retxQueue     []int64       // segments awaiting retransmission
	retxScheduled bool
	rtoArmed      bool
	lastProgress  float64 // time of last new ack, for the RTO timer
	srtt          float64 // smoothed RTT estimate

	// Receiver state.
	received      map[int64]int
	receivedBytes int64

	// recordIdx indexes the engine's FlowRecord for this flow.
	recordIdx int

	throughput *metrics.ThroughputSeries
}

// remaining returns the payload bytes not yet acknowledged, which is
// pFabric's packet priority.
func (c *conn) remaining() int64 { return c.size - c.ackedBytes }

// record returns the engine's flow record for this connection.
func (c *conn) record() *metrics.FlowRecord { return &c.eng.records[c.recordIdx] }

// segmentAt returns the payload length of the segment starting at seq.
func (c *conn) segmentLen(seq int64) int {
	left := c.size - seq
	if left >= sim.MTU {
		return sim.MTU
	}
	return int(left)
}

// sendSegment transmits the data segment starting at seq.
func (c *conn) sendSegment(seq int64, retransmit bool) {
	payload := c.segmentLen(seq)
	if payload <= 0 {
		return
	}
	now := c.eng.sim.Now()
	p := &sim.Packet{
		Flow:         c.id,
		Kind:         sim.Data,
		Src:          c.src,
		Dst:          c.dst,
		Seq:          seq,
		PayloadBytes: payload,
		WireBytes:    payload + sim.HeaderBytes,
		Priority:     float64(c.remaining()),
		ECNCapable:   c.ecnCapable,
		SentAt:       now,
		Path:         c.fwdPath,
		Retransmit:   retransmit,
	}
	if c.eng.cfg.Scheme == XCP {
		p.XCPCwnd = c.cwnd
		p.XCPRTT = c.rttEstimate()
	}
	if !retransmit {
		if _, ok := c.unacked[seq]; !ok {
			c.unacked[seq] = payload
			c.inflight += int64(payload)
		}
	}
	c.armRTO()
	c.eng.net.Send(p)
}

// rttEstimate returns the smoothed RTT, falling back to the path's base RTT.
func (c *conn) rttEstimate() float64 {
	if c.srtt > 0 {
		return c.srtt
	}
	return c.baseRTT
}

// trySendWindow sends new segments while the congestion window allows, for
// window-based schemes (DCTCP, Cubic, XCP, TCP).
func (c *conn) trySendWindow() {
	for c.nextSeq < c.size && (c.inflight == 0 || float64(c.inflight) < c.cwnd) {
		seq := c.nextSeq
		payload := c.segmentLen(seq)
		c.nextSeq += int64(payload)
		c.sendSegment(seq, false)
	}
}

// startPacing begins (or resumes) the paced sending loop for rate-based
// schemes (Flowtune, pFabric). Each call sends at most one segment and
// schedules the next send according to the current pacing rate.
func (c *conn) startPacing() {
	if c.pacing || c.nextSeq >= c.size || c.paceRate <= 0 {
		return
	}
	c.pacing = true
	c.paceNext()
}

// paceNext sends the next segment and schedules the following one.
func (c *conn) paceNext() {
	if c.nextSeq >= c.size || c.paceRate <= 0 {
		c.pacing = false
		return
	}
	seq := c.nextSeq
	payload := c.segmentLen(seq)
	c.nextSeq += int64(payload)
	c.sendSegment(seq, false)
	if c.nextSeq >= c.size {
		c.pacing = false
		return
	}
	gap := float64((payload+sim.HeaderBytes)*8) / c.paceRate
	c.eng.sim.Schedule(gap, c.paceNext)
}

// setPaceRate updates the pacing rate; if the connection still has bytes to
// send and pacing had stopped (rate was zero), it restarts the pacing loop.
func (c *conn) setPaceRate(rate float64) {
	c.paceRate = rate
	if rate > 0 {
		c.startPacing()
	}
}

// handleAck processes an acknowledgment arriving back at the sender.
func (c *conn) handleAck(p *sim.Packet) {
	now := c.eng.sim.Now()
	length, outstanding := c.unacked[p.Seq]
	if outstanding {
		delete(c.unacked, p.Seq)
		c.inflight -= int64(length)
		c.ackedBytes += int64(length)
		c.lastProgress = now
	}
	rtt := now - p.SentAt
	if rtt > 0 {
		if c.srtt == 0 {
			c.srtt = rtt
		} else {
			c.srtt = 0.875*c.srtt + 0.125*rtt
		}
	}
	c.snd.onAck(c, p, rtt)
	if c.ackedBytes >= c.size && !c.senderDone {
		c.senderDone = true
		c.eng.senderFinished(c)
	}
}

// handleLoss is invoked when one of the connection's data segments is known
// lost. The segment is queued for retransmission after the scheme's
// retransmission delay, modelling the detection latency (fast retransmit or
// timeout) a real transport would incur.
func (c *conn) handleLoss(p *sim.Packet) {
	if c.senderDone {
		return
	}
	if _, ok := c.unacked[p.Seq]; !ok {
		return // already acknowledged (e.g. a duplicate retransmission was dropped)
	}
	c.retxQueue = append(c.retxQueue, p.Seq)
	c.snd.onLoss(c)
	c.scheduleRetransmits()
}

// scheduleRetransmits schedules the pending retransmissions after the
// scheme's retransmission delay.
func (c *conn) scheduleRetransmits() {
	if c.retxScheduled || len(c.retxQueue) == 0 {
		return
	}
	c.retxScheduled = true
	delay := c.eng.retxDelay(c)
	c.eng.sim.Schedule(delay, func() {
		c.retxScheduled = false
		queue := c.retxQueue
		c.retxQueue = nil
		for _, seq := range queue {
			if _, still := c.unacked[seq]; still && !c.senderDone {
				c.sendSegment(seq, true)
			}
		}
	})
}

// armRTO starts the retransmission-timeout watchdog if it is not running.
// The watchdog recovers from lost acknowledgments, which the loss callback
// cannot see.
func (c *conn) armRTO() {
	if c.rtoArmed || c.senderDone {
		return
	}
	c.rtoArmed = true
	c.lastProgress = c.eng.sim.Now()
	c.eng.sim.Schedule(c.eng.rtoInterval(c), c.rtoCheck)
}

// rtoCheck fires periodically while data is outstanding and retransmits
// everything unacknowledged when no progress has been made for a full RTO.
func (c *conn) rtoCheck() {
	c.rtoArmed = false
	if c.senderDone || len(c.unacked) == 0 {
		return
	}
	now := c.eng.sim.Now()
	rto := c.eng.rtoInterval(c)
	if now-c.lastProgress >= rto {
		c.snd.onLoss(c)
		// Queue in sequence order: map order would make the retransmission
		// schedule, and so every run's results, differ between runs.
		queued := len(c.retxQueue)
		for seq := range c.unacked {
			c.retxQueue = append(c.retxQueue, seq)
		}
		slices.Sort(c.retxQueue[queued:])
		c.lastProgress = now
		c.scheduleRetransmits()
	}
	c.rtoArmed = true
	c.eng.sim.Schedule(rto, c.rtoCheck)
}

// handleData processes a data packet arriving at the receiver and returns an
// acknowledgment to send back.
func (c *conn) handleData(p *sim.Packet) *sim.Packet {
	now := c.eng.sim.Now()
	if _, dup := c.received[p.Seq]; !dup {
		c.received[p.Seq] = p.PayloadBytes
		c.receivedBytes += int64(p.PayloadBytes)
		c.eng.deliveredBytes += int64(p.PayloadBytes)
		if c.throughput != nil {
			c.throughput.Add(now, p.PayloadBytes)
		}
		if c.receivedBytes >= c.size {
			rec := c.record()
			if rec.End == 0 {
				rec.End = now
				if c.eng.onFlowComplete != nil {
					c.eng.onFlowComplete(c.id, now)
				}
			}
		}
	}
	ack := &sim.Packet{
		Flow:        c.id,
		Kind:        sim.Ack,
		Src:         c.dst,
		Dst:         c.src,
		Seq:         p.Seq,
		WireBytes:   sim.AckBytes,
		EchoECN:     p.ECNMarked,
		XCPFeedback: p.XCPFeedback,
		SentAt:      p.SentAt, // carried through for RTT measurement
		Path:        c.revPath,
	}
	return ack
}
