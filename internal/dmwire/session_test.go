package dmwire

import (
	"bytes"
	"errors"
	"testing"
)

// TestRegisterReqVersion: the register request is the one version byte,
// and anything but ProtocolVersion — other versions, an empty body, a
// longer body — is refused with ErrProtocolVersion.
func TestRegisterReqVersion(t *testing.T) {
	b := RegisterReq{Version: ProtocolVersion}.Marshal()
	if len(b) != 1 {
		t.Fatalf("marshalled length = %d, want 1", len(b))
	}
	if r, err := UnmarshalRegisterReq(b); err != nil || r.Version != ProtocolVersion {
		t.Fatalf("round trip = %+v, %v", r, err)
	}
	for _, bad := range [][]byte{nil, {ProtocolVersion + 1}, {0}, {ProtocolVersion, 0}} {
		if _, err := UnmarshalRegisterReq(bad); !errors.Is(err, ErrProtocolVersion) {
			t.Errorf("body %x: err = %v, want ErrProtocolVersion", bad, err)
		}
	}
}

// TestRegisterRespCreditForms: every combination of shard, credits and
// epoch marshals to the one registerRespSize-byte layout and round-trips.
func TestRegisterRespCreditForms(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    RegisterResp
	}{
		{"base", RegisterResp{PID: 7, LeaseMillis: 15000}},
		{"shard", RegisterResp{PID: 7, LeaseMillis: 15000, HasShard: true, Shard: 3}},
		{"credits", RegisterResp{PID: 7, LeaseMillis: 15000, Credits: 256}},
		{"credits+shard", RegisterResp{PID: 9, LeaseMillis: 500, HasShard: true, Shard: 2, Credits: 64}},
		{"credits max", RegisterResp{PID: 1, LeaseMillis: 1, Credits: 1<<32 - 1}},
		{"epoch", RegisterResp{PID: 7, LeaseMillis: 15000, Epoch: 9}},
		{"credits+epoch", RegisterResp{PID: 7, LeaseMillis: 15000, Credits: 256, Epoch: 9}},
		{"credits+epoch+shard", RegisterResp{PID: 9, LeaseMillis: 500, HasShard: true, Shard: 2, Credits: 64, Epoch: 1 << 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.r.Marshal()
			if len(b) != registerRespSize {
				t.Fatalf("marshalled length = %d, want %d", len(b), registerRespSize)
			}
			got, err := UnmarshalRegisterResp(b)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.r {
				t.Fatalf("round trip = %+v, want %+v", got, tc.r)
			}
		})
	}
}

// TestRegisterRespEpochFoldBack: a zero epoch does not shorten the body —
// it decodes to exactly its fields and re-encodes byte-identically — and
// a HasShard byte other than 0 or 1 (e.g. 0x06/0x07) is rejected.
func TestRegisterRespEpochFoldBack(t *testing.T) {
	want := RegisterResp{PID: 42, LeaseMillis: 9000, HasShard: true, Shard: 5, Credits: 64}
	b := want.Marshal()
	got, err := UnmarshalRegisterResp(b)
	if err != nil || got != want {
		t.Fatalf("zero-epoch decode = %+v, %v; want %+v", got, err, want)
	}
	if !bytes.Equal(got.Marshal(), b) {
		t.Fatal("zero-epoch body does not re-encode byte-identically")
	}
	for _, flags := range []byte{0x06, 0x07} {
		old := append([]byte(nil), b...)
		old[8] = flags
		if _, err := UnmarshalRegisterResp(old); err == nil {
			t.Errorf("HasShard byte %#x accepted", flags)
		}
	}
}

// TestHeartbeatRespCreditForms: every combination of credits and epoch
// marshals to the one heartbeatRespSize-byte layout and round-trips.
func TestHeartbeatRespCreditForms(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    HeartbeatResp
	}{
		{"base", HeartbeatResp{LeaseMillis: 250}},
		{"credits", HeartbeatResp{LeaseMillis: 250, Credits: 128}},
		{"epoch", HeartbeatResp{LeaseMillis: 250, Epoch: 7}},
		{"credits+epoch", HeartbeatResp{LeaseMillis: 250, Credits: 128, Epoch: 1 << 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.r.Marshal()
			if len(b) != heartbeatRespSize {
				t.Fatalf("marshalled length = %d, want %d", len(b), heartbeatRespSize)
			}
			got, err := UnmarshalHeartbeatResp(b)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.r {
				t.Fatalf("round trip = %+v, want %+v", got, tc.r)
			}
		})
	}
}

// TestHeartbeatRespEpochFoldBack: a zero epoch does not shorten the
// body — it decodes to exactly its fields and re-encodes
// byte-identically.
func TestHeartbeatRespEpochFoldBack(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    HeartbeatResp
	}{
		{"zero epoch zero credits", HeartbeatResp{LeaseMillis: 300}},
		{"zero epoch with credits", HeartbeatResp{LeaseMillis: 300, Credits: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.r.Marshal()
			got, err := UnmarshalHeartbeatResp(b)
			if err != nil || got != tc.r {
				t.Fatalf("decode = %+v, %v; want %+v", got, err, tc.r)
			}
			if !bytes.Equal(got.Marshal(), b) {
				t.Fatal("zero-epoch body does not re-encode byte-identically")
			}
		})
	}
}

// TestFixedLayoutsRejectOtherLengths: the register and heartbeat
// responses decode only at their one length; every shorter or longer
// body is refused.
func TestFixedLayoutsRejectOtherLengths(t *testing.T) {
	for _, tc := range []struct {
		name   string
		size   int
		decode func([]byte) error
	}{
		{"RegisterResp", registerRespSize, func(b []byte) error { _, err := UnmarshalRegisterResp(b); return err }},
		{"HeartbeatResp", heartbeatRespSize, func(b []byte) error { _, err := UnmarshalHeartbeatResp(b); return err }},
	} {
		for n := 0; n <= tc.size+8; n++ {
			err := tc.decode(make([]byte, n))
			if (err == nil) != (n == tc.size) {
				t.Errorf("%s: %d-byte body: err = %v", tc.name, n, err)
			}
		}
	}
}
