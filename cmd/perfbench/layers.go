package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// layerMetrics are the per-layer metrics of a traced run, in
// BENCHMARK.json's order. A metric of a layer a workload never calls
// reads 0.
var layerMetrics = []metricDef{
	{"compile.s", "s"}, {"compile.calls", "count"},
	{"setup.s", "s"}, {"setup.minsts", "Minst"}, {"setup.mips", "MIPS"},
	{"ckpt.take_s", "s"}, {"ckpt.restore_s", "s"},
	{"eval.s", "s"}, {"eval.mrecords", "Mrec"}, {"eval.krec_per_s", "krec/s"},
	{"eval.windows", "count"}, {"eval.coverage_pct", "%"}, {"sample.cpi_err_max_pct", "%"},
	{"check.s", "s"},
	{"fleet.boot_s", "s"}, {"fleet.acquires", "count"}, {"fleet.acquire_ms", "ms"},
	{"fleet.serves", "count"}, {"fleet.serve_us", "us"},
	{"load.run_s", "s"}, {"des.self_s_est", "s"},
	{"fabric.boot_s", "s"}, {"fabric.run_s", "s"}, {"fabric.guest_mips", "MIPS"}, {"fabric.msgs", "count"},
	{"emulate.s", "s"}, {"report.s", "s"}, {"render.s", "s"},
	{"sweep.busy_s", "s"}, {"sweep.straggler_s", "s"}, {"sweep.efficiency", "ratio"},
	{"alloc.mb", "MB"}, {"gc.cycles", "count"},
	{"trace.wall_s", "s"}, {"trace.overhead_pct", "%"}, {"trace.coverage_pct", "%"},
}

// layerSpans names the spans that wrap a call into a layer; the others
// ("trial", "sweep" and the per-task spans) only group them.
var layerSpans = map[string]bool{
	"compile": true, "setup": true, "ckpt.take": true, "ckpt.restore": true, "eval": true, "check": true,
	"load.run": true, "fabric.boot": true, "fabric.run": true,
	"emulate": true, "report": true, "render": true,
}

// untraced is what the untraced trials measured that the per-layer view
// reports: median wall time, allocated MB and GC cycles per trial.
type untraced struct {
	wall, allocMB, gcs float64
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues derives every per-layer metric from a traced trial's spans
// and counters. traced is the traced trial's outcome.
func layerValues(rec *recorder, jobs int, u untraced, traced outcome) map[string]float64 {
	root := rec.find("trial")
	self := rec.selfTimes(root)
	s := func(name string) float64 { return self[name].Seconds() }
	c := rec.counts
	var layer, all time.Duration
	for name, d := range self {
		all += d
		if layerSpans[name] {
			layer += d
		}
	}
	wall := (rec.spans[root].end - rec.spans[root].start).Seconds()
	busy, sweepWall, workers := sweepBusy(rec, jobs)
	fleetS := (c["fleet.acquire_ns"] + c["fleet.serve_ns"]) / 1e9
	return map[string]float64{
		"compile.s":              s("compile"),
		"compile.calls":          c["compile.calls"],
		"setup.s":                s("setup"),
		"setup.minsts":           c["setup.insts"] / 1e6,
		"setup.mips":             div(c["setup.insts"]/1e6, s("setup")),
		"ckpt.take_s":            s("ckpt.take"),
		"ckpt.restore_s":         s("ckpt.restore"),
		"eval.s":                 s("eval"),
		"eval.mrecords":          c["eval.records"] / 1e6,
		"eval.krec_per_s":        div(c["eval.records"]/1e3, s("eval")),
		"eval.windows":           c["eval.windows"],
		"eval.coverage_pct":      100 * div(c["eval.sampled_insts"], c["eval.total_insts"]),
		"sample.cpi_err_max_pct": traced.cpiErr,
		"check.s":                s("check"),
		"fleet.boot_s":           c["fleet.boot_ns"] / 1e9,
		"fleet.acquires":         c["fleet.acquires"],
		"fleet.acquire_ms":       div(c["fleet.acquire_ns"]/1e6, c["fleet.acquires"]),
		"fleet.serves":           c["fleet.serves"],
		"fleet.serve_us":         div(c["fleet.serve_ns"]/1e3, c["fleet.serves"]),
		"load.run_s":             s("load.run"),
		"des.self_s_est":         s("load.run") - fleetS,
		"fabric.boot_s":          s("fabric.boot"),
		"fabric.run_s":           s("fabric.run"),
		"fabric.guest_mips":      div(c["fabric.insts"]/1e6, s("fabric.run")),
		"fabric.msgs":            c["fabric.msgs"],
		"emulate.s":              s("emulate"),
		"report.s":               s("report"),
		"render.s":               s("render"),
		"sweep.busy_s":           busy,
		"sweep.straggler_s":      sweepWall - div(busy, float64(workers)),
		"sweep.efficiency":       div(busy, float64(workers)*sweepWall),
		"alloc.mb":               u.allocMB,
		"gc.cycles":              u.gcs,
		"trace.wall_s":           wall,
		"trace.overhead_pct":     100 * div(wall-u.wall, u.wall),
		"trace.coverage_pct":     100 * div(layer.Seconds(), all.Seconds()),
	}
}

// sweepBusy returns the summed task time of the trial's sweep span, the
// sweep's wall time, and how many workers it could keep busy.
func sweepBusy(rec *recorder, jobs int) (busy, wall float64, workers int) {
	sw := rec.find("sweep")
	if sw < 0 {
		return 0, 0, 1
	}
	tasks := rec.children(sw)
	for _, t := range tasks {
		busy += (rec.spans[t].end - rec.spans[t].start).Seconds()
	}
	return busy, (rec.spans[sw].end - rec.spans[sw].start).Seconds(), max(1, min(jobs, len(tasks)))
}

// describeSweep prints where the sweep's parallel time went: the tail in
// which some worker had no task left, and the tasks that finished last
// and ran longest.
func describeSweep(w io.Writer, rec *recorder) {
	sw := rec.find("sweep")
	if sw < 0 {
		return
	}
	ids := rec.children(sw)
	lastEnd := map[int]time.Duration{}
	for _, id := range ids {
		s := rec.spans[id]
		lastEnd[s.track] = max(lastEnd[s.track], s.end)
	}
	firstIdle := rec.spans[sw].end
	for _, e := range lastEnd {
		firstIdle = min(firstIdle, e)
	}
	fmt.Fprintf(w, "sweep: %d tasks on %d workers, %.3fs wall; %.3fs tail with a worker idle\n",
		len(ids), len(lastEnd), (rec.spans[sw].end - rec.spans[sw].start).Seconds(),
		(rec.spans[sw].end - firstIdle).Seconds())
	// ids is in start order, which is the order sweep.Each hands tasks out.
	order := map[int]int{}
	for k, id := range ids {
		order[id] = k
	}
	show := func(title string, less func(a, b span) bool) {
		sorted := append([]int(nil), ids...)
		sort.SliceStable(sorted, func(i, j int) bool { return less(rec.spans[sorted[i]], rec.spans[sorted[j]]) })
		fmt.Fprintf(w, "  %s:", title)
		for _, id := range sorted[:min(3, len(sorted))] {
			s := rec.spans[id]
			fmt.Fprintf(w, " %s [#%d, %.3fs→%.3fs]", s.name, order[id], (s.start - rec.spans[sw].start).Seconds(),
				(s.end - rec.spans[sw].start).Seconds())
		}
		fmt.Fprintln(w)
	}
	show("finished last", func(a, b span) bool { return a.end > b.end })
	show("ran longest", func(a, b span) bool { return a.end-a.start > b.end-b.start })
}
