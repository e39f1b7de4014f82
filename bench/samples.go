package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"syscall"
)

// column is a fixed-capacity array of uint32 samples mapped outside the Go
// heap. The daemon shares the harness's process, so a sample buffer on the
// heap would count as live data and stretch the collector's pacing — a 16-flow
// daemon would collect garbage a tenth as often as it does alone, and
// peak_rss_mb would measure the harness. Untouched pages of the mapping are
// never resident.
type column struct {
	buf []byte
	n   int
}

func newColumn(capacity int) (*column, error) {
	buf, err := syscall.Mmap(-1, 0, 4*max(capacity, 1), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d samples: %w", capacity, err)
	}
	return &column{buf: buf}, nil
}

func (c *column) cap() int { return len(c.buf) / 4 }

// add appends v, which is nanoseconds in every use: it saturates at 4.29 s,
// four times the limit beyond which an operation has failed anyway.
func (c *column) add(v int64) {
	binary.LittleEndian.PutUint32(c.buf[4*c.n:], uint32(min(max(v, 0), math.MaxUint32)))
	c.n++
}

func (c *column) at(i int) int64 { return int64(binary.LittleEndian.Uint32(c.buf[4*i:])) }

// micros returns samples [from, to) in microseconds, ascending.
func (c *column) micros(from, to int) []float64 {
	v := make([]float64, 0, to-from)
	for i := from; i < to; i++ {
		v = append(v, float64(c.at(i))/1e3)
	}
	sort.Float64s(v)
	return v
}

func (c *column) free() {
	if c != nil && c.buf != nil {
		_ = syscall.Munmap(c.buf) // the process is about to exit anyway
		c.buf = nil
	}
}
