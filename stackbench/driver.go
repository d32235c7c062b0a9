package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// loadGoroutines is the number of load goroutines (the clients of the
// closed-loop workloads, the senders of the open-loop one).
const loadGoroutines = 2

// openGrace is how long after an open-loop window ends its backlog may
// still be sent; ops due in the window but not sent by then fail.
const openGrace = 2 * time.Second

// rec is one measured op. Times are ns since the run epoch; due equals
// start in closed loop.
type rec struct {
	id              uint64
	due, start, end int64
	verify          int64 // ns spent checking the op's outputs
	bytes           int64
	class           uint8
	ok              bool
}

// window is the account of one measured stretch of load: the ops
// started (closed loop) or due (open loop) in [base, base+dur). It
// keeps counts and histograms, so its memory does not grow with the
// ops it counts; only a traced window keeps every op, for the span log.
type window struct {
	base    int64
	dur     time.Duration
	lat     []stats.Histogram // per class: ns from due to end of each correct op
	failed  []int             // per class: ops that failed or returned wrong outputs
	unsent  int               // open-loop ops due in the window but never sent
	late    int               // ops sent after the window ended
	lag     stats.Histogram   // ns from due to send
	bytes   int64             // payload bytes of correct ops
	verify  int64             // ns spent checking outputs
	service int64             // ns from send to end, summed
	recs    []rec             // every op, in a traced window only
	keep    bool
}

func (w *window) add(r rec) {
	if r.ok {
		w.lat[r.class].Record(r.end - r.due)
		w.bytes += r.bytes
	} else {
		w.failed[r.class]++
	}
	if r.start >= w.base+int64(w.dur) {
		w.late++
	}
	w.lag.Record(r.start - r.due)
	w.verify += r.verify
	w.service += r.end - r.start
	if w.keep {
		w.recs = append(w.recs, r)
	}
}

func (w *window) merge(o *window) {
	for c := range w.lat {
		w.lat[c].Merge(&o.lat[c])
		w.failed[c] += o.failed[c]
	}
	w.unsent += o.unsent
	w.late += o.late
	w.lag.Merge(&o.lag)
	w.bytes += o.bytes
	w.verify += o.verify
	w.service += o.service
	w.recs = append(w.recs, o.recs...)
}

// ok counts the correct ops.
func (w *window) ok() int {
	n := 0
	for c := range w.lat {
		n += int(w.lat[c].Count())
	}
	return n
}

// sent counts the ops sent, correct or not.
func (w *window) sent() int {
	n := w.ok()
	for _, f := range w.failed {
		n += f
	}
	return n
}

func (w *window) attempted() int { return w.sent() + w.unsent }

// failedOps counts failed, wrong and never-sent ops.
func (w *window) failedOps() int { return w.attempted() - w.ok() }

// offered is the share of attempted ops sent before the window ended.
func (w *window) offered() float64 {
	return float64(w.sent()-w.late) / float64(max(w.attempted(), 1))
}

// driver runs one workload instance's clients, closed or open loop.
type driver struct {
	sp      *spec
	inst    instance
	clients []client
	curs    []*atomic.Uint64 // op id each load goroutine is running
	epoch   time.Time
	seed    uint64
	round   uint64 // the running window's number; each draws its own inputs
	keep    bool   // keep every op of the running window for the span log
	errs    atomic.Int64
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

// streamSeed is the seed of stream w in the current window.
func (d *driver) streamSeed(w int) uint64 {
	return workload.DeriveSeed(d.seed, d.round<<8|uint64(w))
}

// window runs load numbered round from base (a d.now() reading) for
// dur.
func (d *driver) window(round uint64, base int64, dur time.Duration) window {
	d.round = round
	if d.sp.rate > 0 {
		return d.open(base, dur)
	}
	return d.closed(base, dur)
}

// do runs one op on load goroutine w and times it: exec from start,
// check separately.
func (d *driver) do(w int, id uint64, c client, o op, start int64) rec {
	d.curs[w].Store(id)
	n, err := c.exec(o)
	end := d.now()
	d.curs[w].Store(0)
	if err == nil {
		err = c.check(o)
	}
	r := rec{id: id, due: start, start: start, end: end, verify: d.now() - end, bytes: n, class: o.class, ok: err == nil}
	if err != nil && d.errs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "stackbench: %s op failed: %v\n", d.sp.classes[o.class], err)
	}
	return r
}

// closed runs every client back to back; an op is in the window when
// it starts in it.
func (d *driver) closed(base int64, dur time.Duration) window {
	to := base + int64(dur)
	per := make([]window, len(d.clients))
	var wg sync.WaitGroup
	for w, c := range d.clients {
		next := d.inst.stream(w, d.streamSeed(w))
		per[w] = d.newWindow(base, dur)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				o := next()
				c.prepare(o)
				start := d.now()
				if start >= to {
					return
				}
				per[w].add(d.do(w, opID(d.round, w, seq), c, o, start))
			}
		}()
	}
	wg.Wait()
	return d.merge(base, dur, per)
}

func (d *driver) newWindow(base int64, dur time.Duration) window {
	n := len(d.sp.classes)
	return window{base: base, dur: dur, keep: d.keep, lat: make([]stats.Histogram, n), failed: make([]int, n)}
}

// merge sums the load goroutines' accounts of one window.
func (d *driver) merge(base int64, dur time.Duration, per []window) window {
	win := d.newWindow(base, dur)
	for i := range per {
		win.merge(&per[i])
	}
	return win
}

// open sends ops on a Poisson schedule precomputed from the seed, each
// timed from its due time, so a stall charges every op it delays. The
// load goroutines take the ops in due order as they come free.
func (d *driver) open(base int64, dur time.Duration) window {
	r := rng(d.streamSeed(loadGoroutines))
	next := d.inst.stream(0, d.streamSeed(0))
	var dues []int64
	var ops []op
	for t := r.ExpFloat64() / d.sp.rate; t < dur.Seconds(); t += r.ExpFloat64() / d.sp.rate {
		dues = append(dues, int64(t*1e9))
		ops = append(ops, next())
	}
	deadline := base + int64(dur+openGrace)
	var taken atomic.Int64
	sent := make([]bool, len(ops))
	per := make([]window, len(d.clients))
	var wg sync.WaitGroup
	for w, c := range d.clients {
		per[w] = d.newWindow(base, dur)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(taken.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				c.prepare(ops[i])
				due := base + dues[i]
				if wait := due - d.now(); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
				start := d.now()
				if start >= deadline {
					return
				}
				sent[i] = true
				rc := d.do(w, opID(d.round, w, uint64(i)+1), c, ops[i], start)
				rc.due = due
				per[w].add(rc)
			}
		}()
	}
	wg.Wait()
	win := d.merge(base, dur, per)
	for _, ok := range sent {
		if !ok {
			win.unsent++
		}
	}
	return win
}

// opID names an op span: window, load goroutine and sequence number.
func opID(round uint64, w int, seq uint64) uint64 {
	return round<<56 | uint64(w+1)<<48 | seq
}
