package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p < 1) of an ascending
// sample, and whether the sample supports it: a percentile is only reported
// as a result when at least ten samples lie beyond it. An unsupported
// percentile is still computed — the caller prints it flagged — and an empty
// sample yields 0.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= 10
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	m, _ := percentile(sortedCopy(v), 0.5)
	return m
}

// ratio is a/b with 0 for an empty base, so a metric over a zero count stays
// finite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the acceptance check computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// residentMB reads one resident-set field of /proc/self/status in MB: VmRSS,
// or VmHWM, its high-water mark. Either covers the in-process daemon and the
// harness together.
func residentMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// fingerprint identifies the machine a result came from; results from
// different fingerprints are not comparable.
type fingerprint struct {
	GOMAXPROCS     int     `json:"gomaxprocs"`
	CPU            string  `json:"cpu"`
	GoVersion      string  `json:"go_version"`
	SleepQuantumUs float64 `json:"host.sleep_quantum_us"`
	RTTFloorUs     float64 `json:"socket.rtt_floor_us"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("gomaxprocs=%d cpu=%q go=%s host.sleep_quantum_us=%.1f socket.rtt_floor_us=%.2f",
		f.GOMAXPROCS, f.CPU, f.GoVersion, f.SleepQuantumUs, f.RTTFloorUs)
}

// takeFingerprint measures the two host properties the program cannot
// control: how long a 50 us sleep really takes, and a same-size frame
// ping-pong over a daemon-less loopback TCP pair. reqBytes is the size of one
// request of the workload at hand; the reply is a few rate updates' worth.
func takeFingerprint(reqBytes int) (fingerprint, error) {
	fp := fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
	}
	sleeps := make([]float64, 0, 50)
	for i := 0; i < cap(sleeps); i++ {
		t := time.Now()
		time.Sleep(50 * time.Microsecond)
		sleeps = append(sleeps, float64(time.Since(t))/1e3)
	}
	fp.SleepQuantumUs = median(sleeps)
	rtt, err := rttFloor(reqBytes, 64)
	fp.RTTFloorUs = rtt
	return fp, err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rttFloor is the median round trip of reqBytes up and replyBytes back over a
// loopback TCP pair with nothing but an echo goroutine behind it.
func rttFloor(reqBytes, replyBytes int) (float64, error) {
	// A churn-20k request is ~100 KB; cap the ping-pong at one socket buffer
	// so the floor stays a latency, not a bulk-transfer, figure.
	reqBytes = min(max(reqBytes, 1), 16<<10)
	replyBytes = min(max(replyBytes, 1), 16<<10)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("rtt floor: %w", err)
	}
	defer ln.Close()
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		req, reply := make([]byte, reqBytes), make([]byte, replyBytes)
		for {
			if _, err := io.ReadFull(c, req); err != nil {
				return
			}
			if _, err := c.Write(reply); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, fmt.Errorf("rtt floor: %w", err)
	}
	req, reply := make([]byte, reqBytes), make([]byte, replyBytes)
	const rounds = 2000
	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds+200; i++ {
		t := time.Now()
		if _, err = c.Write(req); err != nil {
			break
		}
		if _, err = io.ReadFull(c, reply); err != nil {
			break
		}
		if i >= 200 {
			rtts = append(rtts, float64(time.Since(t))/1e3)
		}
	}
	c.Close()
	<-echoDone
	if err != nil {
		return 0, fmt.Errorf("rtt floor: %w", err)
	}
	return median(rtts), nil
}
