package faults

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// nullBackend is a minimal inner backend for injector unit tests.
type nullBackend struct{ steps int }

func (n *nullBackend) FlowletStart(id core.FlowID, src, dst int, weight float64) error { return nil }
func (n *nullBackend) FlowletEnd(id core.FlowID) error                                 { return nil }
func (n *nullBackend) Step() ([]core.RateUpdate, error)                                { n.steps++; return nil, nil }

// nullCapacity records capacity writes without an allocator behind it.
type nullCapacity struct{ calls int }

func (c *nullCapacity) SetLinkCapacity(l topology.LinkID, capacity float64) error {
	c.calls++
	return nil
}

// TestInjectorFinishReport runs a two-event plan through the injector and
// checks that Finish reports every event it applied, once, and that the
// capacity event reached the allocator once.
func TestInjectorFinishReport(t *testing.T) {
	topo, err := topology.NewTwoTier(topology.Config{
		Racks: 4, ServersPerRack: 4, Spines: 2, LinkCapacity: 10e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cap := &nullCapacity{}
	inner := &nullBackend{}
	inj, err := NewInjector(InjectorConfig{
		Plan: Plan{Events: []Event{
			{Step: 1, Kind: LinkDegrade, Rack: 0, Spine: 1, Fraction: 0.5},
			{Step: 2, Kind: ECMPRehash, Salt: 7},
		}},
		Topology: topo,
		Capacity: cap,
	}, inner)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if _, err := inj.Step(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := inj.Finish(5)
	if err != nil {
		t.Fatal(err)
	}
	want := Report{EventsApplied: 2, CapacityChanges: 1, Rehashes: 1, SyntheticFlows: 5}
	if !reflect.DeepEqual(*rep, want) {
		t.Fatalf("report %+v; want %+v", *rep, want)
	}
	if inj.Steps() != 3 || inner.steps != 3 {
		t.Fatalf("injector counted %d steps and forwarded %d; want 3 and 3", inj.Steps(), inner.steps)
	}
	if cap.calls != 1 {
		t.Fatalf("capacity setter called %d times; want 1", cap.calls)
	}
}
