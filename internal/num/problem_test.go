package num

import (
	"math"
	"testing"
)

func TestProblemValidate(t *testing.T) {
	good := &Problem{Capacities: []float64{1e9, 2e9}, Flows: []Flow{{Route: []int32{0, 1}}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	bad := []*Problem{
		{Capacities: []float64{0}, Flows: nil},
		{Capacities: []float64{-1}, Flows: nil},
		{Capacities: []float64{math.NaN()}, Flows: nil},
		{Capacities: []float64{math.Inf(1)}, Flows: nil},
		{Capacities: []float64{1e9}, Flows: []Flow{{Route: nil}}},
		{Capacities: []float64{1e9}, Flows: []Flow{{Route: []int32{1}}}},
		{Capacities: []float64{1e9}, Flows: []Flow{{Route: []int32{-1}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid problem %d accepted", i)
		}
	}
}

func TestNewStateInitialization(t *testing.T) {
	p := &Problem{Capacities: []float64{1e9, 1e9}, Flows: []Flow{{Route: []int32{0}}, {Route: []int32{1}}}}
	st := NewState(p)
	if len(st.Prices) != 2 || len(st.Rates) != 2 {
		t.Fatalf("state sizes wrong: %d prices, %d rates", len(st.Prices), len(st.Rates))
	}
	for _, price := range st.Prices {
		if price != 1 {
			t.Errorf("initial price %g, want 1 (the paper's initialization)", price)
		}
	}
}

func TestStateResize(t *testing.T) {
	p := &Problem{Capacities: []float64{1e9}, Flows: []Flow{{Route: []int32{0}}, {Route: []int32{0}}}}
	st := NewState(p)
	st.Rates[0], st.Rates[1] = 5, 7
	st.Resize(1)
	if len(st.Rates) != 1 || st.Rates[0] != 5 {
		t.Errorf("shrink lost data: %v", st.Rates)
	}
	st.Resize(3)
	if len(st.Rates) != 3 || st.Rates[0] != 5 {
		t.Errorf("grow lost data: %v", st.Rates)
	}
	if st.Rates[2] != 0 {
		t.Errorf("new slots should be zero, got %g", st.Rates[2])
	}
}

func TestPathPrice(t *testing.T) {
	st := &State{Prices: []float64{0.5, 1.5, 2}}
	if got := st.PathPrice([]int32{0, 2}); got != 2.5 {
		t.Errorf("PathPrice = %g, want 2.5", got)
	}
	if got := st.PathPrice(nil); got != 0 {
		t.Errorf("PathPrice(nil) = %g, want 0", got)
	}
}

func TestLinkLoadsAndOverAllocation(t *testing.T) {
	p := &Problem{
		Capacities: []float64{10, 10},
		Flows: []Flow{
			{Route: []int32{0}},
			{Route: []int32{0, 1}},
		},
	}
	rates := []float64{6, 7}
	loads := LinkLoads(p, rates, nil)
	if loads[0] != 13 || loads[1] != 7 {
		t.Errorf("loads = %v, want [13 7]", loads)
	}
	if got := OverAllocation(p, rates); got != 3 {
		t.Errorf("OverAllocation = %g, want 3", got)
	}
	if got := MaxLinkUtilization(p, rates); got != 1.3 {
		t.Errorf("MaxLinkUtilization = %g, want 1.3", got)
	}
	if Feasible(p, rates, 0.01) {
		t.Error("Feasible should report false for an over-allocated problem")
	}
	if !Feasible(p, []float64{3, 7}, 0.01) {
		t.Error("Feasible should report true for a feasible allocation")
	}
}

func TestLinkLoadsReuseBuffer(t *testing.T) {
	p := &Problem{Capacities: []float64{10}, Flows: []Flow{{Route: []int32{0}}}}
	buf := make([]float64, 1)
	buf[0] = 123
	out := LinkLoads(p, []float64{4}, buf)
	if &out[0] != &buf[0] {
		t.Error("LinkLoads did not reuse the provided buffer")
	}
	if out[0] != 4 {
		t.Errorf("buffer not reset: %v", out)
	}
}

func TestObjectiveAndThroughput(t *testing.T) {
	p := &Problem{
		Capacities: []float64{10},
		Flows: []Flow{
			{Route: []int32{0}, Weight: 1},
			{Route: []int32{0}, Weight: 2},
		},
	}
	rates := []float64{math.E, math.E}
	want := 1.0 + 2.0 // 1*log(e) + 2*log(e)
	if got := Objective(p, rates); math.Abs(got-want) > 1e-12 {
		t.Errorf("Objective = %g, want %g", got, want)
	}
	if got := TotalThroughput(rates); math.Abs(got-2*math.E) > 1e-12 {
		t.Errorf("TotalThroughput = %g, want %g", got, 2*math.E)
	}
}

// TestFlowDefaultUtility: a flow with no weight compiles to weight 1.
func TestFlowDefaultUtility(t *testing.T) {
	p := &Problem{Capacities: []float64{10}, Flows: []Flow{{Route: []int32{0}}}}
	if got := p.Compiled().Weights[0]; got != 1 {
		t.Errorf("default weight = %g, want 1", got)
	}
}
