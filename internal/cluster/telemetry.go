package cluster

import (
	"fmt"
	"net"
	"strconv"

	"repro/internal/telemetry"
)

// Observability: a cluster serves the admin surface a single daemon does as
// one aggregated endpoint (ServeAdmin), the cross-shard scrape an operator
// points a collector at.

// RegisterMetrics exposes every shard's counter surfaces in reg, each series
// labeled shard="i". The in-loop series (iteration-latency histogram, churn
// counter) record into the registry registered most recently — register into
// one aggregated registry, or one registry per shard, not both.
func (c *Cluster) RegisterMetrics(reg *telemetry.Registry) {
	for i, srv := range c.servers {
		srv.RegisterMetrics(reg, telemetry.Label{Key: "shard", Value: strconv.Itoa(i)})
	}
	reg.GaugeFunc("flowtune_cluster_shards", "Daemons in the cluster.",
		func() float64 { return float64(len(c.servers)) })
	reg.GaugeFunc("flowtune_cluster_shards_alive", "Daemons not yet closed.", func() float64 {
		alive := 0
		for _, srv := range c.servers {
			if !srv.Closed() {
				alive++
			}
		}
		return float64(alive)
	})
}

// ServeAdmin starts the aggregated cluster admin endpoint on addr (port 0
// picks a free port) and returns the bound address. Its /metrics is the
// cross-shard scrape; /trace serves a map keyed "shard-i" of every shard's
// flight-recorder window; /readyz reports ready while at least one shard is
// alive and none is draining; /healthz while at least one shard is alive.
// The endpoint is torn down by Close.
func (c *Cluster) ServeAdmin(addr string) (net.Addr, error) {
	if c.admin != nil {
		return nil, fmt.Errorf("cluster: admin endpoint already serving on %s", c.admin.Addr())
	}
	recs := make([]*telemetry.FlightRecorder, len(c.servers))
	for i, srv := range c.servers {
		recs[i] = telemetry.NewFlightRecorder(telemetry.DefaultFlightWindow)
		srv.AttachFlightRecorder(recs[i])
	}
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	adm, err := telemetry.NewAdmin(telemetry.AdminConfig{
		Registry: reg,
		Trace: func() any {
			out := make(map[string]telemetry.FlightTrace, len(recs))
			for i, rec := range recs {
				out[fmt.Sprintf("shard-%d", i)] = rec.Trace()
			}
			return out
		},
		Healthy: func() bool { return c.anyAlive() },
		Ready: func() bool {
			if !c.anyAlive() {
				return false
			}
			for _, srv := range c.servers {
				if !srv.Closed() && srv.Draining() {
					return false
				}
			}
			return true
		},
	})
	if err != nil {
		return nil, err
	}
	bound, err := adm.Start(addr)
	if err != nil {
		return nil, err
	}
	c.admin = adm
	return bound, nil
}

// anyAlive reports whether at least one daemon is still open.
func (c *Cluster) anyAlive() bool {
	for _, srv := range c.servers {
		if !srv.Closed() {
			return true
		}
	}
	return false
}
