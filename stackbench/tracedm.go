package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dm"
	"repro/internal/live"
	"repro/internal/pool"
)

// DM methods a span can record, in methodNames order.
const (
	mStageRef uint8 = iota
	mReadRef
	mReadRefLease
	mReadRefFrom
	mReadRefLeaseFrom
	mFreeRef
	mMapRef
	mCreateRef
	mFree
)

var methodNames = [...]string{
	"StageRef", "ReadRef", "ReadRefLease", "ReadRefFrom", "ReadRefLeaseFrom",
	"FreeRef", "MapRef", "CreateRef", "Free",
}

// methodGroup maps a DM method to the pool.* metric group it feeds:
// adopt is liverpc's MapRef+CreateRef(+Free of the private mapping).
var methodGroup = [...]string{
	"stage", "read", "read", "read", "read",
	"free", "adopt", "adopt", "adopt",
}

// span is one DM call: which session made it, when, and the op span it
// ran under (0 for service-side calls, whose parent would have to come
// through the envelope trace ID, i.e. from inside the program).
type span struct {
	op         uint64
	start, end int64 // ns since the tracer's epoch
	sess       uint16
	method     uint8
	failed     bool
}

// tracer collects spans in memory while on; they are written out when
// the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu     sync.Mutex
	labels []string
	logs   []*spanLog
}

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// wrap returns a tracing view of p labelled label. Views of one session
// share its label but record their own owner's op slot.
func (t *tracer) wrap(p *pool.Client, label string, cur *atomic.Uint64) *tracedDM {
	t.mu.Lock()
	defer t.mu.Unlock()
	sess := -1
	for i, l := range t.labels {
		if l == label {
			sess = i
		}
	}
	if sess < 0 {
		sess = len(t.labels)
		t.labels = append(t.labels, label)
	}
	log := &spanLog{}
	t.logs = append(t.logs, log)
	return &tracedDM{p: p, tr: t, log: log, sess: uint16(sess), cur: cur}
}

// spans returns every span recorded so far.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		l.mu.Lock()
		out = append(out, l.spans...)
		l.mu.Unlock()
	}
	return out
}

// tracedDM is a liverpc.DM decorator over a pool session that records
// one span per DM call. It forwards every optional interface liverpc
// type-asserts (LocatedDM, ReplicatedDM, BufDM, io.Closer), so traced
// runs take the same located, failover and zero-copy paths as untraced
// ones.
type tracedDM struct {
	p    *pool.Client
	tr   *tracer
	log  *spanLog
	sess uint16
	cur  *atomic.Uint64
}

// begin stamps a call's start, or returns -1 while tracing is off.
func (d *tracedDM) begin() int64 {
	if !d.tr.on.Load() {
		return -1
	}
	return d.tr.now()
}

func (d *tracedDM) end(m uint8, start int64, err error) {
	if start < 0 {
		return
	}
	sp := span{start: start, end: d.tr.now(), sess: d.sess, method: m, failed: err != nil}
	if d.cur != nil {
		sp.op = d.cur.Load()
	}
	d.log.mu.Lock()
	d.log.spans = append(d.log.spans, sp)
	d.log.mu.Unlock()
}

func (d *tracedDM) StageRef(data []byte) (dm.Ref, error) {
	s := d.begin()
	ref, err := d.p.StageRef(data)
	d.end(mStageRef, s, err)
	return ref, err
}

func (d *tracedDM) ReadRef(ref dm.Ref, off int64, dst []byte) error {
	s := d.begin()
	err := d.p.ReadRef(ref, off, dst)
	d.end(mReadRef, s, err)
	return err
}

func (d *tracedDM) ReadRefLease(ref dm.Ref, off, size int64) (*live.Buf, error) {
	s := d.begin()
	b, err := d.p.ReadRefLease(ref, off, size)
	d.end(mReadRefLease, s, err)
	return b, err
}

func (d *tracedDM) ReadRefFrom(ref dm.Ref, hints []uint32, off int64, dst []byte) error {
	s := d.begin()
	err := d.p.ReadRefFrom(ref, hints, off, dst)
	d.end(mReadRefFrom, s, err)
	return err
}

func (d *tracedDM) ReadRefLeaseFrom(ref dm.Ref, hints []uint32, off, size int64) (*live.Buf, error) {
	s := d.begin()
	b, err := d.p.ReadRefLeaseFrom(ref, hints, off, size)
	d.end(mReadRefLeaseFrom, s, err)
	return b, err
}

func (d *tracedDM) FreeRef(ref dm.Ref) error {
	s := d.begin()
	err := d.p.FreeRef(ref)
	d.end(mFreeRef, s, err)
	return err
}

func (d *tracedDM) MapRef(ref dm.Ref) (dm.RemoteAddr, error) {
	s := d.begin()
	addr, err := d.p.MapRef(ref)
	d.end(mMapRef, s, err)
	return addr, err
}

func (d *tracedDM) CreateRef(addr dm.RemoteAddr, size int64) (dm.Ref, error) {
	s := d.begin()
	ref, err := d.p.CreateRef(addr, size)
	d.end(mCreateRef, s, err)
	return ref, err
}

func (d *tracedDM) Free(addr dm.RemoteAddr) error {
	s := d.begin()
	err := d.p.Free(addr)
	d.end(mFree, s, err)
	return err
}

// LocatedRefs, Replicas and Close answer locally; they are forwarded
// untraced.
func (d *tracedDM) LocatedRefs() bool            { return d.p.LocatedRefs() }
func (d *tracedDM) Replicas(ref dm.Ref) []uint32 { return d.p.Replicas(ref) }
func (d *tracedDM) Close() error                 { return d.p.Close() }
