package main

import (
	"bytes"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/liverpc"
)

// The tracing wrapper must keep every optional interface liverpc
// type-asserts, or traced runs silently leave the located, failover and
// zero-copy paths that untraced runs take.
func TestTracedDMForwardsOptionalInterfaces(t *testing.T) {
	st, err := launch(1024, newTracer(time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	cur := new(atomic.Uint64)
	dmc, _, err := st.session("client", cur)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dmc.(*tracedDM); !ok {
		t.Fatalf("traced stack minted %T, want *tracedDM", dmc)
	}
	if _, ok := dmc.(liverpc.LocatedDM); !ok {
		t.Error("wrapper does not forward LocatedDM")
	}
	if _, ok := dmc.(liverpc.ReplicatedDM); !ok {
		t.Error("wrapper does not forward ReplicatedDM")
	}
	if _, ok := dmc.(liverpc.BufDM); !ok {
		t.Error("wrapper does not forward BufDM")
	}
	if _, ok := dmc.(io.Closer); !ok {
		t.Error("wrapper does not forward io.Closer")
	}

	caller := liverpc.NewCaller(dmc, liverpc.Config{})
	defer caller.Close()
	data := bytes.Repeat([]byte("dmrpc"), 1000)
	p, err := caller.Stage(data) // untraced: tracing is off
	if err != nil {
		t.Fatal(err)
	}
	if !p.Located() || len(p.Replicas()) != replicaFactor {
		t.Fatalf("staged payload located=%v replicas=%v, want a located ref on %d shards",
			p.Located(), p.Replicas(), replicaFactor)
	}
	st.tr.on.Store(true)
	cur.Store(42)
	b, err := caller.FetchLease(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), data) {
		t.Error("leased read returned wrong bytes")
	}
	b.Release()
	if err := caller.Release(p); err != nil {
		t.Fatal(err)
	}
	st.tr.on.Store(false)

	spans := st.tr.spans()
	var got []string
	for _, s := range spans {
		got = append(got, methodNames[s.method])
		if s.op != 42 || s.end < s.start || s.failed {
			t.Errorf("span %+v: want parent op 42, ordered times, success", s)
		}
	}
	if want := []string{"ReadRefLeaseFrom", "FreeRef"}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("spans %v, want %v (zero-copy failover read, then free)", got, want)
	}
}
