package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/liverpc"
	"repro/internal/loadgen"
	"repro/internal/pool"
)

// The session configuration every workload shares, so the workloads
// differ only in their traffic.
const (
	shardCount    = 3
	replicaFactor = 2
	cacheBytes    = 1 << 20
	pageSize      = 4096
	// leaseTTL is dmserverd's default; leasing is what drives the
	// heartbeats that carry cache-invalidation epochs to clients.
	leaseTTL = 15 * time.Second
)

// stack is one set-up system under test: a 3-shard in-process DM
// cluster on loopback and the harness environment that mints pool
// sessions over it. In traced runs every session is wrapped by tr.
type stack struct {
	pages int
	srvs  []*live.Server
	env   *loadgen.Env
	tr    *tracer // nil in untraced runs
	wg    sync.WaitGroup
}

// launch starts the shard servers, each with pages pages.
func launch(pages int, tr *tracer) (*stack, error) {
	st := &stack{pages: pages, tr: tr}
	var addrs []string
	for i := 0; i < shardCount; i++ {
		srv := live.NewServer(live.ServerConfig{
			NumPages: pages,
			PageSize: pageSize,
			LeaseTTL: leaseTTL,
			HasShard: true,
			ShardID:  uint32(i),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			st.close()
			return nil, fmt.Errorf("shard %d listen: %w", i, err)
		}
		st.srvs = append(st.srvs, srv)
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			srv.Serve(ln) // returns once srv.Close closes ln
		}()
		addrs = append(addrs, ln.Addr().String())
	}
	st.env = &loadgen.Env{
		Shards:   addrs,
		Replicas: replicaFactor,
		Pool:     pool.Config{CacheBytes: cacheBytes},
	}
	return st, nil
}

// session mints one registered pool session, wrapped for tracing when
// the run is traced. cur is the op slot of the load goroutine that owns
// the session (nil for service sessions).
func (st *stack) session(label string, cur *atomic.Uint64) (liverpc.DM, *pool.Client, error) {
	dmc, err := st.env.NewSession()
	if err != nil {
		return nil, nil, err
	}
	p := dmc.(*pool.Client)
	return st.view(p, label, cur), p, nil
}

// view is p as seen by one owner: p itself, or a tracing wrapper.
func (st *stack) view(p *pool.Client, label string, cur *atomic.Uint64) liverpc.DM {
	if st.tr == nil {
		return p
	}
	return st.tr.wrap(p, label, cur)
}

// factory is the session factory handed to the liverpc deployers; the
// i-th session minted is labelled labels[i].
func (st *stack) factory(labels ...string) func() (liverpc.DM, error) {
	n := 0
	return func() (liverpc.DM, error) {
		label := fmt.Sprintf("svc%d", n)
		if n < len(labels) {
			label = labels[n]
		}
		n++
		dmc, _, err := st.session(label, nil)
		return dmc, err
	}
}

// srvCounters sums the shard servers' public counters.
type srvCounters struct {
	bytes, coalesced, batches uint64
	stagePuts                 int64
	liveRefs                  int
}

func (st *stack) counters() srvCounters {
	var c srvCounters
	for _, s := range st.srvs {
		ws := s.WriteStats()
		c.bytes += ws.Bytes
		c.coalesced += ws.CoalescedFrames
		c.batches += ws.Batches
		c.stagePuts += s.StagePuts()
		c.liveRefs += s.LiveRefs()
	}
	return c
}

// usedFrac is the fullest shard's share of pages in use.
func (st *stack) usedFrac() float64 {
	var worst float64
	for _, s := range st.srvs {
		if u := 1 - float64(s.FreePages())/float64(st.pages); u > worst {
			worst = u
		}
	}
	return worst
}

// checkInvariants runs every shard's page-manager check; the cluster
// must be quiescent.
func (st *stack) checkInvariants() error {
	for i, s := range st.srvs {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// close tears down every session, then the servers, and waits for
// their serve loops to return.
func (st *stack) close() {
	if st.env != nil {
		st.env.CloseSessions()
	}
	for _, s := range st.srvs {
		s.Close()
	}
	st.wg.Wait()
}
