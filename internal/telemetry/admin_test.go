package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

func getBody(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("flowtune_test_total", "a counter").Add(7)
	rec := NewFlightRecorder(4)
	rec.Record(FlightSample{Iteration: 3, Updates: 2})

	var ready atomic.Bool
	ready.Store(true)
	adm, err := NewAdmin(AdminConfig{
		Registry: reg,
		Recorder: rec,
		Ready:    ready.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := adm.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	base := fmt.Sprintf("http://%s", addr)

	code, body, hdr := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(body, "flowtune_test_total 7") {
		t.Fatalf("/metrics missing series:\n%s", body)
	}
	if err := Lint(body); err != nil {
		t.Fatalf("/metrics lint: %v", err)
	}

	if code, _, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	if code, _, _ := getBody(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz status %d", code)
	}
	ready.Store(false)
	if code, _, _ := getBody(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after ready=false: status %d; want 503", code)
	}
	if code, _, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz should stay 200 when only readiness drops; got %d", code)
	}

	code, body, hdr = getBody(t, base+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("/trace Content-Type = %q", ct)
	}
	var tr FlightTrace
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/trace decode: %v\n%s", err, body)
	}
	if tr.Total != 1 || len(tr.Samples) != 1 || tr.Samples[0].Iteration != 3 {
		t.Fatalf("/trace payload wrong: %s", body)
	}

	if code, body, _ := getBody(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

func TestAdminRequiresRegistry(t *testing.T) {
	if _, err := NewAdmin(AdminConfig{}); err == nil {
		t.Fatal("NewAdmin accepted a nil registry")
	}
}
