// Command stackbench is the repository's end-to-end benchmark of the live
// DM stack. One process launches a 3-shard live.Server cluster on
// loopback, sets up one workload over pool sessions (replica factor 2,
// a 1 MiB hot-ref cache each), drives it from two load goroutines,
// checks every output, and prints one JSON result line.
//
// Workloads, chosen to stress different layers:
//
//   - kv-zipf: closed loop, YCSB-shaped kv on the pool (1024 keys of
//     4 KiB, Zipf 0.99, 90% reads). Small messages, where per-message
//     cost dominates; exercises refcache (working set 4x the cache),
//     pool routing and the live round trip, and never touches liverpc.
//   - socialnet-open: open loop at 500 ops/s, about a quarter of the
//     2-client closed-loop capacity on a 2-core host (at half of it,
//     queueing behind host stalls made latency swing by 2x from run
//     to run); 60/30/10 compose/read-home/read-user with 8 KiB media
//     by ref. The paper's headline app, dominated by liverpc multi-hop
//     dispatch and pool writes, with a near-zero cache hit ratio.
//   - blob-chain: closed loop, a 3-hop liverpc chain with 64 KiB /
//     256 KiB / 1 MiB payloads. Bytes dominate; each payload is read
//     once, so refcache is bypassed.
//
// Usage:
//
//	stackbench --workload kv-zipf --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports what the stack costs the machine, from an untraced
// window of --seconds: CPU time and heap allocation per op, the peak
// resident set, and the CPU time of one set-up (repeated setupReps
// times, median reported, so work moved into set-up shows). These are
// the figures a shared host leaves steady: the kernel keeps the time
// the hypervisor steals out of a process's CPU time, while steal
// stretches every wall-clock figure by tens of percent for minutes at a
// time. --trace 1 splits --seconds between an untraced window and a
// traced one; it reports the untraced window's throughput and latencies
// (e2e.*) with the share of the machine the host took meanwhile, the
// per-layer breakdown of the traced window and what tracing cost, and
// writes its spans to --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"
)

const (
	setupReps = 9
	// basePages sizes each shard for the workloads' live data and
	// in-flight payloads; a workload that keeps data adds growthPages.
	basePages = 4096
	// pageHeadroom covers uneven placement of kept data across shards.
	pageHeadroom = 1.3
	// maxPagesUsed is the fullest a shard may get before the run is
	// refused: numbers from a pool short of pages are not published.
	maxPagesUsed = 0.9
	// wireCallsTolerance bounds how far the traced window's wire calls
	// per op may stray from the untraced one's.
	wireCallsTolerance = 0.15
)

func main() {
	name := flag.String("workload", "", "workload to run: kv-zipf, socialnet-open or blob-chain")
	seed := flag.Uint64("seed", 1, "seed every input is drawn from")
	seconds := flag.Int("seconds", 10, "length of one measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the span log of a traced run is written to")
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "stackbench: need --workload kv-zipf|socialnet-open|blob-chain, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
}

func run(sp *spec, seed uint64, dur time.Duration, traced bool, outDir string) error {
	epoch := time.Now()
	// A traced run splits its time between an untraced reference window
	// and the traced one.
	win := dur
	if traced {
		win = dur / 2
	}
	load := maxWarmup + dur + 2*openGrace
	pages := basePages + int(math.Ceil(sp.growthPages*load.Seconds()*pageHeadroom/shardCount))

	// Set up setupReps times. Every set-up stays up until the last is
	// done, so each launches its servers on fresh memory as a new process
	// would; only the last is measured.
	var stacks []*stack
	var insts []instance
	defer func() {
		for _, in := range insts {
			in.close()
		}
		for _, st := range stacks {
			st.close()
		}
	}()
	var setupWall, setupCPU []float64
	for i := 0; i < setupReps; i++ {
		var tr *tracer
		if traced {
			tr = newTracer(epoch)
		}
		t0, c0 := time.Now(), processCPU()
		st, err := launch(pages, tr)
		if err != nil {
			return err
		}
		stacks = append(stacks, st)
		inst, err := sp.setup(st, seed)
		if err != nil {
			return fmt.Errorf("%s setup: %w", sp.name, err)
		}
		insts = append(insts, inst)
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (processCPU() - c0).Seconds())
	}
	st, inst := stacks[setupReps-1], insts[setupReps-1]
	for i := 0; i < setupReps-1; i++ {
		insts[i].close()
		stacks[i].close()
	}
	// Fresh slices, so the closed set-ups' pools can be collected; their
	// memory goes back to the OS, so the measured resident set is the
	// running stack's alone.
	stacks, insts = []*stack{st}, []instance{inst}
	debug.FreeOSMemory()
	baseline := st.counters().liveRefs

	d := &driver{sp: sp, inst: inst, epoch: epoch, seed: seed}
	for w := 0; w < loadGoroutines; w++ {
		cur := new(atomic.Uint64)
		c, err := inst.client(w, cur)
		if err != nil {
			return fmt.Errorf("%s client %d: %w", sp.name, w, err)
		}
		defer c.close()
		d.clients = append(d.clients, c)
		d.curs = append(d.curs, cur)
	}

	warm(d)
	res := measure(d, st, roundMeasured, win)
	attempted, failed := res.win.attempted(), res.win.failedOps()
	var ref result
	if traced {
		ref = res
		st.tr.on.Store(true)
		d.keep = true
		res = measure(d, st, roundTraced, win)
		d.keep = false
		st.tr.on.Store(false)
		res.spans = st.tr.spans()
		attempted += res.win.attempted()
		failed += res.win.failedOps()
	}

	// Checks: the pool never ran short, every write is intact, the
	// workload's refs are released, and the page managers are sound.
	if used := max(res.pagesUsed, ref.pagesUsed, st.usedFrac()); used > maxPagesUsed {
		return fmt.Errorf("a shard ran short of pages (%.0f%% used of %d); not publishing numbers", used*100, pages)
	}
	var problems []string
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d ops failed", failed, attempted))
	}
	if err := inst.finish(); err != nil {
		problems = append(problems, err.Error())
	}
	if got := st.counters().liveRefs; got != baseline {
		problems = append(problems, fmt.Sprintf("live refs %d after release, want post-setup %d", got, baseline))
	}
	if err := st.checkInvariants(); err != nil {
		problems = append(problems, err.Error())
	}
	if traced {
		if r := res.wireCallsPerOp() / ref.wireCallsPerOp(); math.Abs(r-1) > wireCallsTolerance {
			problems = append(problems, fmt.Sprintf("traced run made %.2fx the wire calls per op of the untraced one", r))
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "stackbench: check failed:", p)
	}

	var ms []metric
	if traced {
		ms = perLayer(sp, &res, &ref, median(setupWall))
		if err := writeSpans(outDir, sp, seed, &res, st.tr); err != nil {
			return err
		}
	} else {
		ms = endToEnd(&res, median(setupCPU))
	}
	fmt.Printf("# %s %s ops=%d window=%s\n", sp.name, fingerprint(seed), res.win.sent(), win)
	out := map[string]any{}
	for _, m := range ms {
		fmt.Printf("# %-32s %14.4f %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(problems) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeSpans writes the traced window's op spans and DM spans as CSV.
func writeSpans(dir string, sp *spec, seed uint64, r *result, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s %s\n", sp.name, fingerprint(seed))
	b.WriteString("kind,id,parent,session,name,due_ns,start_ns,end_ns,ok\n")
	for _, rc := range r.win.recs {
		fmt.Fprintf(&b, "op,%d,0,,%s,%d,%d,%d,%t\n", rc.id, sp.classes[rc.class], rc.due, rc.start, rc.end, rc.ok)
	}
	for i, s := range r.spans {
		fmt.Fprintf(&b, "dm,%d,%d,%s,%s,,%d,%d,%t\n", i, s.op, tr.labels[s.sess], methodNames[s.method], s.start, s.end, !s.failed)
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+sp.name+".csv"), []byte(b.String()), 0o644)
}

// fingerprint names the host and build a result came from.
func fingerprint(seed uint64) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), seed, gitCommit())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD of a git checkout in the working directory, or
// reports "unknown" (the benchmark may run from an exported tree).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
