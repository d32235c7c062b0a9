package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/stats"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// failedMs stands in for the +Inf latency of a failed op wherever a
// percentile lands on one (JSON has no infinity).
const failedMs = 1e9

// rtNames are the Go runtime metrics read around a window.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

const (
	rtAllocs = iota
	rtGCCycles
	rtGCPauses
	rtSchedLat
	rtGCCPU
	rtTotalCPU
)

// snapshot is every public counter read at one edge of a window.
type snapshot struct {
	cpu  time.Duration // process user+sys
	host hostTicks
	rt   []metrics.Sample
	sess loadgen.SessionTotals
	srv  srvCounters
}

func takeSnapshot(st *stack) snapshot {
	s := snapshot{cpu: processCPU(), host: readHostTicks(), sess: st.env.SessionTotals(), srv: st.counters()}
	s.rt = make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s.rt[i].Name = n
	}
	metrics.Read(s.rt)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks is the machine's CPU time from /proc/stat, in clock ticks:
// all of it, the part spent busy on this machine, and the part the
// hypervisor gave to other guests (steal).
type hostTicks struct{ total, busy, steal float64 }

// clockTick is the unit of /proc/stat (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	var h hostTicks
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		h.total += v
		switch i {
		case 4, 5: // idle, iowait
		case 8:
			h.steal = v
		default:
			h.busy += v
		}
	}
	return h
}

// interference is the share of the machine's CPU time between a and b
// that went to anything but this process: stolen by the hypervisor, or
// spent on other processes.
func interference(a, b snapshot) float64 {
	total := b.host.total - a.host.total
	if total <= 0 {
		return 0
	}
	own := float64(b.cpu-a.cpu) / float64(clockTick)
	other := max(b.host.busy-a.host.busy-own, 0)
	return (b.host.steal - a.host.steal + other) / total
}

// rssMiB is the process's resident set now.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// result is one measured window with the counters read before it and
// after it drains, and the gauges sampled while it ran.
type result struct {
	win        window
	edges      [2]snapshot
	pagesUsed  float64 // fullest shard's peak share of pages in use
	rssMiB     float64 // peak resident set
	goroutines int     // peak goroutine count
	spans      []span
}

func (r *result) before() snapshot { return r.edges[0] }
func (r *result) after() snapshot  { return r.edges[1] }

// Window numbers: the measured windows, then warm-up windows.
const (
	roundMeasured = 1
	roundTraced   = 2
	roundWarm     = 16
)

// maxWarmup caps the warm-up of a workload whose heap grows slowly.
const maxWarmup = 20 * time.Second

// warm runs unrecorded load, one second at a time, until the Go heap has
// reached its steady size: one automatic GC cycle since set-up, or
// maxWarmup. Until then every allocation touches fresh memory, which
// slows the whole process in a way a long-running deployment never
// sees.
func warm(d *driver) {
	gcs := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/cycles/automatic:gc-cycles"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	start, t0 := gcs(), time.Now()
	for i := uint64(0); ; i++ {
		d.window(roundWarm+i, d.now(), time.Second)
		if gcs() > start || time.Since(t0) >= maxWarmup {
			return
		}
	}
}

// measure runs window round for dur, reading counters around it and
// sampling gauges while it runs. It starts from a collected heap with
// its free memory returned to the OS, so the resident set the window
// peaks at does not depend on what ran before it.
func measure(d *driver, st *stack, round uint64, dur time.Duration) result {
	debug.FreeOSMemory()
	var res result
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			res.pagesUsed = max(res.pagesUsed, st.usedFrac())
			res.rssMiB = max(res.rssMiB, rssMiB())
			res.goroutines = max(res.goroutines, runtime.NumGoroutine())
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	res.edges[0] = takeSnapshot(st)
	res.win = d.window(round, d.now(), dur)
	res.edges[1] = takeSnapshot(st)
	close(stop)
	wg.Wait()
	return res
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	return (ys[(n-1)/2] + ys[n/2]) / 2
}

// latencyMs is the q-quantile of the latency from due time of the
// attempted ops of class (all classes when negative), failed and
// never-sent ops ranking as +Inf.
func (w *window) latencyMs(class int, q float64) float64 {
	var h stats.Histogram
	failed := 0
	for c := range w.lat {
		if class < 0 || c == class {
			h.Merge(&w.lat[c])
			failed += w.failed[c]
		}
	}
	if class < 0 {
		failed += w.unsent
	}
	n := int(h.Count()) + failed
	if n == 0 {
		return 0
	}
	rank := max(int(math.Ceil(q*float64(n))), 1)
	if rank > int(h.Count()) {
		return failedMs
	}
	return float64(h.Quantile(float64(rank)/float64(h.Count()))) / 1e6
}

// perOp divides by the window's sent ops.
func (r *result) perOp(v float64) float64 {
	if r.win.sent() == 0 {
		return 0
	}
	return v / float64(r.win.sent())
}

func (r *result) cpuUsPerOp() float64 {
	return r.perOp(float64(r.after().cpu-r.before().cpu) / 1e3)
}

func (r *result) allocs() uint64 {
	return r.after().rt[rtAllocs].Value.Uint64() - r.before().rt[rtAllocs].Value.Uint64()
}

func (r *result) wireCallsPerOp() float64 {
	return r.perOp(float64(r.after().sess.Calls - r.before().sess.Calls))
}

// meanServiceUs is the mean op time from send to completion.
func (r *result) meanServiceUs() float64 {
	return r.perOp(float64(r.win.service) / 1e3)
}

// endToEnd is what a user of the system pays, from an untraced window:
// CPU time and memory. They are the figures a shared host leaves
// alone: the kernel keeps time the hypervisor steals out of a
// process's CPU time, but it stretches every wall-clock figure, so
// throughput and latency are reported with the per-layer metrics.
func endToEnd(r *result, setupCPU float64) []metric {
	return []metric{
		{"setup_s", setupCPU, "s"},
		{"cpu_us_per_op", r.cpuUsPerOp(), "us/op"},
		{"alloc_kb_per_op", r.perOp(float64(r.allocs()) / 1024), "KiB/op"},
		{"rss_peak_mb", r.rssMiB, "MiB"},
	}
}

// histQuantile is the q-quantile of the samples a runtime histogram
// gained between a and b, as its bucket's upper bound.
func histQuantile(a, b metrics.Sample, q float64) float64 {
	ha, hb := a.Value.Float64Histogram(), b.Value.Float64Histogram()
	var total uint64
	for i := range hb.Counts {
		total += hb.Counts[i] - ha.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range hb.Counts {
		if cum += hb.Counts[i] - ha.Counts[i]; cum >= target {
			if hi := hb.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return hb.Buckets[i]
		}
	}
	return 0
}

// allClasses is every op class of every workload; op.<class>.* reads 0
// on workloads that do not issue that class.
func allClasses() []string {
	var out []string
	for _, sp := range specs {
		out = append(out, sp.classes...)
	}
	return out
}

var spanGroups = []string{"stage", "read", "free", "adopt"}

// perLayer breaks the traced window t down by layer; ref is the
// untraced window run just before it on the same stack, and setupWall
// the median wall time of one set-up.
func perLayer(sp *spec, t, ref *result, setupWall float64) []metric {
	n := float64(t.win.sent())
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// e2e: what a user of the system waits for, from the untraced
	// window, and how much of the machine the host took meanwhile.
	secs := ref.win.dur.Seconds()
	add("e2e.throughput_ops_s", float64(ref.win.ok())/secs, "1/s")
	add("e2e.goodput_mb_s", float64(ref.win.bytes)/secs/(1<<20), "MiB/s")
	add("e2e.latency_p50_ms", ref.win.latencyMs(-1, 0.50), "ms")
	add("e2e.latency_p99_ms", ref.win.latencyMs(-1, 0.99), "ms")
	add("e2e.setup_wall_s", setupWall, "s")
	add("host.interference_frac", interference(ref.before(), ref.after()), "frac")

	// driver: the benchmark's own schedule and checks.
	add("driver.lag_p99_ms", float64(t.win.lag.Quantile(0.99))/1e6, "ms")
	add("driver.offered_frac", t.win.offered(), "frac")
	add("driver.verify_us_per_op", t.perOp(float64(t.win.verify)/1e3), "us/op")
	add("driver.error_frac", ratio(float64(t.win.failedOps()), float64(t.win.attempted())), "frac")

	// op: per-class latency from due time.
	for _, cl := range allClasses() {
		var p50, p99 float64
		if i := slices.Index(sp.classes, cl); i >= 0 {
			p50, p99 = t.win.latencyMs(i, 0.50), t.win.latencyMs(i, 0.99)
		}
		add("op."+cl+".p50_ms", p50, "ms")
		add("op."+cl+".p99_ms", p99, "ms")
	}

	// pool: DM spans from the tracing wrapper, plus pool counters.
	durs := make(map[string][]float64)
	var busy, spanErrs float64
	for _, s := range t.spans {
		g := methodGroup[s.method]
		d := float64(s.end-s.start) / 1e3
		durs[g] = append(durs[g], d)
		busy += d
		if s.failed {
			spanErrs++
		}
	}
	for _, g := range spanGroups {
		xs := durs[g]
		slices.Sort(xs)
		add("pool."+g+".calls_per_op", ratio(float64(len(xs)), n), "calls/op")
		add("pool."+g+".p50_us", quantile(xs, 0.50), "us")
		add("pool."+g+".p99_us", quantile(xs, 0.99), "us")
	}
	add("pool.busy_us_per_op", ratio(busy, n), "us/op")
	add("pool.errors_per_op", ratio(spanErrs, n), "1/op")
	a, b := t.after().sess, t.before().sess
	add("pool.failover_reads", float64(a.FailoverReads-b.FailoverReads), "count")
	add("pool.repairs", float64(a.RepairsDone-b.RepairsDone), "count")
	add("pool.migrated_bytes", float64(a.MigratedBytes-b.MigratedBytes), "B")

	// refcache: the pool-level hot-ref caches of every session.
	hits, misses := float64(a.CacheHits-b.CacheHits), float64(a.CacheMisses-b.CacheMisses)
	add("refcache.hit_ratio", ratio(hits, hits+misses), "frac")
	add("refcache.admit_ratio", ratio(float64(a.CacheAdmits-b.CacheAdmits), misses), "frac")
	add("refcache.evictions_per_op", ratio(float64(a.CacheEvictions-b.CacheEvictions), n), "1/op")
	add("refcache.invalidations_per_op", ratio(float64(a.CacheInvalidations-b.CacheInvalidations), n), "1/op")
	add("refcache.coalesced_per_op", ratio(float64(a.CacheCoalesced-b.CacheCoalesced), n), "1/op")

	// liverpc: op time not spent in DM calls (every chain is synchronous).
	add("liverpc.self_us_per_op", t.meanServiceUs()-ratio(busy, n), "us/op")

	// live: client transport counters (heartbeats included) and server
	// counters.
	add("live.wire_calls_per_op", t.wireCallsPerOp(), "calls/op")
	add("live.credit_waits_per_op", ratio(float64(a.CreditWaits-b.CreditWaits), n), "1/op")
	add("live.retries", float64(a.Retries-b.Retries), "count")
	add("live.timeouts", float64(a.Timeouts-b.Timeouts), "count")
	add("live.status_errors", float64(a.Failures-b.Failures), "count")
	sa, sb := t.after().srv, t.before().srv
	add("live.srv_bytes_per_op", ratio(float64(sa.bytes-sb.bytes), n), "B/op")
	add("live.srv_frames_per_batch", ratio(float64(sa.coalesced-sb.coalesced), float64(sa.batches-sb.batches)), "frames")
	add("live.srv_stage_puts_per_op", ratio(float64(sa.stagePuts-sb.stagePuts), n), "1/op")
	add("live.srv_pages_used_frac", t.pagesUsed, "frac")

	// runtime: the Go runtime of the whole process (clients and servers).
	ra, rb := t.after().rt, t.before().rt
	add("runtime.gc_cycles_per_kop", ratio(float64(ra[rtGCCycles].Value.Uint64()-rb[rtGCCycles].Value.Uint64())*1000, n), "1/kop")
	add("runtime.gc_pause_p99_us", histQuantile(rb[rtGCPauses], ra[rtGCPauses], 0.99)*1e6, "us")
	add("runtime.gc_cpu_frac", ratio(ra[rtGCCPU].Value.Float64()-rb[rtGCCPU].Value.Float64(),
		ra[rtTotalCPU].Value.Float64()-rb[rtTotalCPU].Value.Float64()), "frac")
	add("runtime.sched_lat_p99_us", histQuantile(rb[rtSchedLat], ra[rtSchedLat], 0.99)*1e6, "us")
	add("runtime.goroutines_max", float64(t.goroutines), "count")

	// trace: what tracing cost, against the untraced window before it.
	add("trace.spans", float64(len(t.spans)), "count")
	add("trace.latency_overhead_frac", ratio(t.meanServiceUs(), ref.meanServiceUs())-1, "frac")
	add("trace.cpu_overhead_frac", ratio(t.cpuUsPerOp(), ref.cpuUsPerOp())-1, "frac")
	add("trace.wire_calls_ratio", ratio(t.wireCallsPerOp(), ref.wireCallsPerOp()), "frac")
	return out
}
