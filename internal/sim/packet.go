package sim

// Header sizes used to model wire overheads, in bytes.
const (
	// HeaderBytes is the combined Ethernet + IP + TCP header overhead
	// added to every data packet.
	HeaderBytes = 54
	// AckBytes is the size of a bare acknowledgment packet.
	AckBytes = 64
	// MTU is the maximum transmission unit for data payloads.
	MTU = 1500
)

// PacketKind distinguishes the roles a packet can play.
type PacketKind uint8

const (
	// Data carries flow payload bytes.
	Data PacketKind = iota
	// Ack acknowledges received payload.
	Ack
	// Control carries allocator control messages (flowlet notifications
	// and rate updates).
	Control
)

// Packet is a simulated packet. Packets are passed by pointer and owned by
// exactly one queue or link at a time.
type Packet struct {
	// Flow identifies the flow the packet belongs to (data and ACKs) or
	// the control stream (allocator traffic).
	Flow int64
	// Kind is the packet's role.
	Kind PacketKind
	// Src and Dst are server indices (or -1 for the allocator host).
	Src, Dst int
	// Seq is the first payload byte carried by a data packet, or the
	// cumulative/selective acknowledgment carried by an ACK.
	Seq int64
	// PayloadBytes is the number of flow payload bytes carried.
	PayloadBytes int
	// WireBytes is the packet's size on the wire, including headers.
	WireBytes int
	// Priority is the scheduling priority used by pFabric queues: the
	// number of bytes remaining in the flow when the packet was sent
	// (lower is more urgent).
	Priority float64
	// ECNCapable marks packets from ECN-capable transports (DCTCP).
	ECNCapable bool
	// ECNMarked is set by queues that exceed their marking threshold.
	ECNMarked bool
	// EchoECN is set on ACKs to echo a received mark back to the sender.
	EchoECN bool
	// XCPFeedback is the per-packet rate feedback field used by XCP:
	// routers reduce it, the receiver echoes it, and the sender adjusts
	// its window by the echoed amount (in bytes per RTT).
	XCPFeedback float64
	// XCPCwnd and XCPRTT carry the sender's current window (bytes) and RTT
	// estimate (seconds) so XCP routers can compute per-packet feedback.
	XCPCwnd float64
	XCPRTT  float64
	// SentAt is the time the packet was first transmitted by its source,
	// used for RTT measurement.
	SentAt Time
	// EnqueuedAt is set by queues when the packet is enqueued, to measure
	// queueing delay.
	EnqueuedAt Time
	// Path is the remaining route: Path[Hop] is the next link to cross.
	Path []int32
	// Hop is the index of the next link in Path.
	Hop int
	// Retransmit marks retransmitted data packets.
	Retransmit bool
	// Ctrl carries allocator control-message contents for Control packets.
	Ctrl *ControlInfo
}

// ControlType enumerates allocator control messages.
type ControlType uint8

const (
	// CtrlFlowletStart announces a new flowlet to the allocator.
	CtrlFlowletStart ControlType = iota
	// CtrlFlowletEnd announces that a flowlet has finished.
	CtrlFlowletEnd
	// CtrlRateUpdate carries a new allocated rate to an endpoint.
	CtrlRateUpdate
)

// ControlInfo is the payload of an allocator control message.
type ControlInfo struct {
	// Type is the message type.
	Type ControlType
	// Flow identifies the flowlet.
	Flow int64
	// Src and Dst are the flowlet's endpoints (server indices), set on
	// flowlet-start messages.
	Src, Dst int
	// Rate is the allocated rate in bits/s, set on rate updates.
	Rate float64
	// Size is the flowlet's size hint in bytes (0 = unknown), set on
	// flowlet-start messages and passed to the allocator, which ignores it
	// (it is the wire v4 FlowletAdd hint).
	Size int64
}

// IsLast reports whether the packet has traversed its entire path.
func (p *Packet) IsLast() bool { return p.Hop >= len(p.Path) }
