package dmwire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dm"
)

// oneArg encodes a as the sole result of a return envelope and returns
// the argument's bytes (the envelope's leading count byte stripped).
func oneArg(a CallArg) []byte { return ReturnEnvelope{Args: []CallArg{a}}.Marshal()[1:] }

// decodeOneArg decodes argument bytes produced by oneArg.
func decodeOneArg(b []byte) (CallArg, error) {
	env, err := UnmarshalReturnEnvelope(append([]byte{1}, b...))
	if err != nil {
		return CallArg{}, err
	}
	return env.Args[0], nil
}

// TestLocatedRefRoundTrip pins the located-ref argument without replica
// hints: flag 2, the 20-byte ref with its shard identity, a zero count.
// A connection-local ref keeps its own 21-byte flag-1 form.
func TestLocatedRefRoundTrip(t *testing.T) {
	ref := dm.Ref{Server: 1234, Key: 0xdeadbeef, Size: 1 << 20}
	b := oneArg(CallArg{IsRef: true, Located: true, Ref: ref})
	if want := 1 + dm.EncodedRefSize + 1; len(b) != want || b[0] != argLocRef || b[len(b)-1] != 0 {
		t.Fatalf("located wire form = %x, want flag 2 | ref | 0 (%d bytes)", b, want)
	}
	got, err := decodeOneArg(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsRef || !got.Located || got.Ref != ref || got.Replicas != nil {
		t.Fatalf("located round trip = %+v", got)
	}

	local := dm.Ref{Server: 2, Key: 42, Size: 4096}
	b = oneArg(CallArg{IsRef: true, Ref: local})
	if len(b) != 1+dm.EncodedRefSize || b[0] != argRef {
		t.Fatalf("connection-local wire form = %x", b)
	}
	if got, err := decodeOneArg(b); err != nil || got.Located || got.Ref != local {
		t.Fatalf("connection-local round trip = %+v, %v", got, err)
	}
}

// TestReplicatedRefRoundTrip pins the replica hints of a located ref:
// the list rides after the ref, up to MaxRefReplicas entries, and a
// wire count above the cap is rejected before allocation.
func TestReplicatedRefRoundTrip(t *testing.T) {
	ref := dm.Ref{Server: 7, Key: ReplicaKeyBit | 99, Size: 1 << 16}
	b := oneArg(CallArg{IsRef: true, Located: true, Ref: ref, Replicas: []uint32{7, 3}})
	if want := 1 + dm.EncodedRefSize + 1 + 4*2; len(b) != want {
		t.Fatalf("replicated wire size = %d, want %d", len(b), want)
	}
	got, err := decodeOneArg(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Located || got.Ref != ref || len(got.Replicas) != 2 || got.Replicas[0] != 7 || got.Replicas[1] != 3 {
		t.Fatalf("replicated round trip = %+v, want replicas [7 3]", got)
	}

	full := make([]uint32, MaxRefReplicas)
	for i := range full {
		full[i] = uint32(i)
	}
	b = oneArg(CallArg{IsRef: true, Located: true, Ref: ref, Replicas: full})
	if got, err := decodeOneArg(b); err != nil || len(got.Replicas) != MaxRefReplicas {
		t.Fatalf("list at the cap: %d replicas, %v", len(got.Replicas), err)
	}
	b[1+dm.EncodedRefSize] = MaxRefReplicas + 1
	b = append(b, 0, 0, 0, 0)
	if _, err := decodeOneArg(b); !errors.Is(err, ErrTooManyReplicas) {
		t.Fatalf("oversized replica count: err = %v, want ErrTooManyReplicas", err)
	}
}

// TestCallArgUnknownFlag: only flags 0, 1 and 2 exist; every other
// leading byte is rejected, so the argument codec stays canonical.
func TestCallArgUnknownFlag(t *testing.T) {
	b := oneArg(CallArg{IsRef: true, Located: true, Ref: dm.Ref{Server: 1, Key: 2, Size: 3}})
	for flag := 3; flag <= 0xff; flag++ {
		b[0] = byte(flag)
		if _, err := decodeOneArg(b); !errors.Is(err, ErrBadEnvelope) {
			t.Fatalf("flag %d: err = %v, want ErrBadEnvelope", flag, err)
		}
	}
}

// TestEnvelopeReplicatedArg pins a replicated located argument in call
// and return envelopes: the replica hint set survives both round trips.
func TestEnvelopeReplicatedArg(t *testing.T) {
	env := CallEnvelope{
		Method: "m",
		Args: []CallArg{
			{IsRef: true, Located: true, Replicas: []uint32{2, 5},
				Ref: dm.Ref{Server: 2, Key: ReplicaKeyBit | 4, Size: 128}},
			{Inline: []byte("tail")},
		},
	}
	dec, err := UnmarshalCallEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	a := dec.Args[0]
	if !a.IsRef || !a.Located || len(a.Replicas) != 2 || a.Replicas[1] != 5 {
		t.Fatalf("replicated arg lost its hint set: %+v", a)
	}
	if !bytes.Equal(dec.Marshal(), env.Marshal()) {
		t.Fatal("envelope with replicated arg does not round-trip")
	}

	rdec, err := UnmarshalReturnEnvelope(ReturnEnvelope{Args: []CallArg{a}}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(rdec.Args[0].Replicas) != 2 {
		t.Fatalf("return envelope lost replicas: %+v", rdec.Args[0])
	}
}

// TestEnvelopeLocatedArg pins the located argument inside a call
// envelope alongside the connection-local and inline forms.
func TestEnvelopeLocatedArg(t *testing.T) {
	env := CallEnvelope{
		Method: "m",
		Args: []CallArg{
			{IsRef: true, Located: true, Ref: dm.Ref{Server: 3, Key: 7, Size: 64}},
			{IsRef: true, Ref: dm.Ref{Server: 0, Key: 8, Size: 32}},
			{Inline: []byte("tail")},
		},
	}
	dec, err := UnmarshalCallEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Args) != 3 {
		t.Fatalf("decoded %d args, want 3", len(dec.Args))
	}
	if !dec.Args[0].Located || dec.Args[0].Ref.Server != 3 {
		t.Fatalf("located arg lost its shard: %+v", dec.Args[0])
	}
	if dec.Args[1].Located {
		t.Fatalf("connection-local ref arg decoded as located: %+v", dec.Args[1])
	}
	if !bytes.Equal(dec.Marshal(), env.Marshal()) {
		t.Fatal("envelope with located arg does not round-trip")
	}
}
