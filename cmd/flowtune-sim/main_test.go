package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTinyRun drives one small Flowtune simulation end to end through the
// CLI surface.
func TestTinyRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-scheme", "flowtune",
		"-workload", "web",
		"-racks", "4", "-servers-per-rack", "4", "-spines", "2",
		"-duration", "0.001",
		"-warmup", "0.0005",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	for _, want := range []string{
		"scheme=Flowtune workload=web",
		"servers=16",
		"completion rate:",
		"control traffic injected:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTinyRunDCTCP covers a non-Flowtune scheme (no control-traffic line).
func TestTinyRunDCTCP(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-scheme", "dctcp",
		"-workload", "cache",
		"-racks", "4", "-servers-per-rack", "4", "-spines", "2",
		"-duration", "0.001",
		"-warmup", "0.0005",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	if strings.Contains(out.String(), "control traffic injected:") {
		t.Errorf("DCTCP run printed Flowtune control traffic:\n%s", out.String())
	}
}

func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-scheme", "carrier-pigeon"}, &out); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run([]string{"-workload", "bogus"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-load", "7"}, &out); err == nil {
		t.Error("out-of-range load accepted")
	}
}
