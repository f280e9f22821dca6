package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) of a Snapshot — the
// GET /metrics surface. No client library: the format is lines of
// `name{labels} value` grouped under # HELP / # TYPE comments, which
// fmt can produce directly, keeping the serving layer dependency-free.
//
// Metric scheme: everything is prefixed eb_serve_. Cumulative counts
// are counters; instantaneous readings (queue depth, shed rate, mean
// batch) are gauges; the latency quantiles are emitted as a summary
// (pre-computed quantiles from the histogram — the server already owns
// the aggregation, so a summary is the honest type).

// promMetric is one metric family: help text, type, and its samples.
type promMetric struct {
	name, help, typ string
	samples         []promSample
}

type promSample struct {
	labels string // rendered `{k="v",...}` or ""
	value  float64
}

// promLabel renders one escaped label pair.
func promLabel(k, v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return k + `="` + r.Replace(v) + `"`
}

// promLabels joins rendered pairs into a label set.
func promLabels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// promValue formats a sample value the way Prometheus expects.
func promValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeProm renders metric families in the order given.
func writeProm(w io.Writer, metrics []promMetric) error {
	for _, m := range metrics {
		if len(m.samples) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ); err != nil {
			return err
		}
		for _, s := range m.samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.name, s.labels, promValue(s.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// snapshotMetrics flattens one Snapshot into metric families, each
// sample labeled with extra (e.g. the model name on a router). A nil
// extra is the single-server case.
func snapshotMetrics(s Snapshot, extra []string) []promMetric {
	lbl := func(pairs ...string) string {
		return promLabels(append(append([]string(nil), extra...), pairs...)...)
	}
	counter := func(name, help string, v float64) promMetric {
		return promMetric{name: name, help: help, typ: "counter",
			samples: []promSample{{labels: lbl(), value: v}}}
	}
	gauge := func(name, help string, v float64) promMetric {
		return promMetric{name: name, help: help, typ: "gauge",
			samples: []promSample{{labels: lbl(), value: v}}}
	}
	const msToSec = 1e-3
	latency := promMetric{
		name: "eb_serve_latency_seconds",
		help: "Request latency quantiles (enqueue to reply, histogram upper bounds).",
		typ:  "summary",
		samples: []promSample{
			{labels: lbl(promLabel("quantile", "0.5")), value: s.Latency.P50 * msToSec},
			{labels: lbl(promLabel("quantile", "0.95")), value: s.Latency.P95 * msToSec},
			{labels: lbl(promLabel("quantile", "0.99")), value: s.Latency.P99 * msToSec},
		},
	}
	out := []promMetric{
		gauge("eb_serve_uptime_seconds", "Seconds since server construction.", s.UptimeSec),
		counter("eb_serve_accepted_total", "Requests admitted to the queue.", float64(s.Accepted)),
		counter("eb_serve_shed_total", "Requests shed by a full admission queue.", float64(s.Shed)),
		counter("eb_serve_rejected_total", "Requests failing shape validation.", float64(s.Rejected)),
		counter("eb_serve_timed_out_total", "HTTP requests whose deadline expired before the reply.", float64(s.TimedOut)),
		counter("eb_serve_fallback_served_total", "Samples answered by the fail-open software path.", float64(s.FallbackServed)),
		counter("eb_serve_completed_total", "Requests answered successfully.", float64(s.Completed)),
		counter("eb_serve_failed_total", "Requests answered with an error.", float64(s.Failed)),
		counter("eb_serve_batches_total", "Dispatched dynamic batches.", float64(s.Batches)),
		counter("eb_serve_drain_served_total", "Requests served inside a drain window.", float64(s.DrainServed)),
		gauge("eb_serve_queue_depth", "Instantaneous admission-queue length.", float64(s.QueueDepth)),
		gauge("eb_serve_shed_rate", "Shed over (accepted + shed).", s.ShedRate),
		gauge("eb_serve_mean_batch", "Mean dynamic batch size.", s.MeanBatch),
		gauge("eb_serve_throughput_per_sec", "Completed requests over uptime.", s.ThroughputPerSec),
		latency,
		gauge("eb_serve_latency_max_seconds", "Maximum observed request latency.", s.Latency.Max*msToSec),
	}
	if s.Sim != nil {
		out = append(out,
			gauge("eb_serve_sim_inferences_per_sec", "Achieved simulated accelerator throughput.", s.Sim.PerSec),
			gauge("eb_serve_sim_ceiling_per_sec", "Analytic steady-state pipeline bound.", s.Sim.CeilingPerSec),
			gauge("eb_serve_sim_mean_energy_pj", "Simulated per-inference energy.", s.Sim.MeanEnergyPJ),
		)
	}
	if s.Lifetime != nil {
		out = append(out,
			gauge("eb_serve_lifetime_healthy_replicas", "Hardware replicas not permanently retired.", float64(len(s.Lifetime.Replicas)-s.Lifetime.Retired)),
			counter("eb_serve_lifetime_recalibrations_total", "Closed-loop recalibration passes.", float64(s.Lifetime.Recalibrations)),
			counter("eb_serve_lifetime_retired_total", "Replicas permanently retired.", float64(s.Lifetime.Retired)),
		)
	}
	return out
}

// writeMetrics renders one server's Snapshot in the Prometheus text
// exposition format.
func writeMetrics(w io.Writer, s Snapshot) error {
	return writeProm(w, snapshotMetrics(s, nil))
}

// mergeMetrics folds per-model families into one family per metric
// name, preserving first-seen family order so multi-model output stays
// grouped per metric, as the exposition format requires.
func mergeMetrics(groups [][]promMetric) []promMetric {
	var order []string
	byName := map[string]*promMetric{}
	for _, ms := range groups {
		for _, m := range ms {
			if got, ok := byName[m.name]; ok {
				got.samples = append(got.samples, m.samples...)
			} else {
				cp := m
				cp.samples = append([]promSample(nil), m.samples...)
				byName[m.name] = &cp
				order = append(order, m.name)
			}
		}
	}
	out := make([]promMetric, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// writeFleetMetrics renders multiple servers' snapshots, one `model`
// label per entry, sorted by model name for deterministic output.
func writeFleetMetrics(w io.Writer, byModel map[string]Snapshot) error {
	names := make([]string, 0, len(byModel))
	for n := range byModel {
		names = append(names, n)
	}
	sort.Strings(names)
	groups := make([][]promMetric, 0, len(names))
	for _, n := range names {
		groups = append(groups, snapshotMetrics(byModel[n], []string{promLabel("model", n)}))
	}
	return writeProm(w, mergeMetrics(groups))
}
