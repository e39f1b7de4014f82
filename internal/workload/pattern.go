package workload

import (
	"fmt"
	"math/rand"
)

// PatternKind selects how flowlet endpoints are chosen. The patterns mirror
// the structured datacenter workloads of the evaluation literature: uniform
// random (the paper's default), a fixed permutation, many-to-one incast, and
// an all-to-all shuffle.
type PatternKind int

const (
	// PatternUniform picks source and destination uniformly at random for
	// every flowlet (the paper's §6.2 default).
	PatternUniform PatternKind = iota
	// PatternPermutation fixes a random derangement π of the servers at
	// construction time; every flowlet from server s goes to π(s). Each
	// server link carries exactly one sending and one receiving flow
	// direction, making permutation the classic full-bisection stress test.
	PatternPermutation
	// PatternIncast makes flowlets arrive in synchronized many-to-one
	// bursts: each arrival event spawns FanIn flowlets from distinct random
	// sources to a single victim server.
	PatternIncast
	// PatternShuffle cycles deterministically through every ordered
	// (source, destination) pair, emulating the all-to-all transfer phase
	// of a MapReduce-style shuffle.
	PatternShuffle
)

// String returns the pattern name used by the scenario CLI.
func (p PatternKind) String() string {
	switch p {
	case PatternUniform:
		return "uniform"
	case PatternPermutation:
		return "permutation"
	case PatternIncast:
		return "incast"
	case PatternShuffle:
		return "shuffle"
	default:
		return fmt.Sprintf("PatternKind(%d)", int(p))
	}
}

// pairPicker chooses flowlet endpoints. next picks both endpoints of an
// open-loop arrival; destFor picks the destination for a closed-loop worker
// pinned to a source server.
type pairPicker interface {
	next(rng *rand.Rand) (src, dst int)
	destFor(rng *rand.Rand, src int) int
}

// uniformPicker draws both endpoints uniformly at random (src ≠ dst).
type uniformPicker struct{ n int }

func (u uniformPicker) next(rng *rand.Rand) (int, int) {
	src := rng.Intn(u.n)
	return src, u.destFor(rng, src)
}

func (u uniformPicker) destFor(rng *rand.Rand, src int) int {
	dst := rng.Intn(u.n - 1)
	if dst >= src {
		dst++
	}
	return dst
}

// permutationPicker sends every flowlet from s to a fixed π(s). The
// permutation is a uniformly random cycle over all servers, so it is a
// derangement for any n ≥ 2.
type permutationPicker struct{ dstOf []int }

func newPermutationPicker(n int, rng *rand.Rand) permutationPicker {
	order := rng.Perm(n)
	dstOf := make([]int, n)
	for i, s := range order {
		dstOf[s] = order[(i+1)%n]
	}
	return permutationPicker{dstOf: dstOf}
}

func (p permutationPicker) next(rng *rand.Rand) (int, int) {
	src := rng.Intn(len(p.dstOf))
	return src, p.dstOf[src]
}

func (p permutationPicker) destFor(_ *rand.Rand, src int) int { return p.dstOf[src] }

// shufflePicker walks all n(n-1) ordered pairs in a deterministic round-robin
// so every pair receives the same number of flowlets over time.
type shufflePicker struct {
	n     int
	count int64
}

func (s *shufflePicker) next(_ *rand.Rand) (int, int) {
	c := s.count
	s.count++
	src := int(c % int64(s.n))
	round := int(c / int64(s.n) % int64(s.n-1))
	dst := (src + 1 + round) % s.n
	return src, dst
}

func (s *shufflePicker) destFor(_ *rand.Rand, src int) int {
	c := s.count
	s.count++
	round := int(c % int64(s.n-1))
	return (src + 1 + round) % s.n
}

// incastSources draws fanIn distinct sources, none equal to the victim.
func incastSources(rng *rand.Rand, n, fanIn, victim int) []int {
	if fanIn > n-1 {
		fanIn = n - 1
	}
	// Partial Fisher-Yates over the server indices excluding the victim.
	pool := make([]int, 0, n-1)
	for s := 0; s < n; s++ {
		if s != victim {
			pool = append(pool, s)
		}
	}
	for i := 0; i < fanIn; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:fanIn]
}
