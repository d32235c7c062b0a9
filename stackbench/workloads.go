package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/dm"
	"repro/internal/liverpc"
	"repro/internal/pool"
	"repro/internal/rpc"
	"repro/internal/workload"
)

// op is one generated operation; its fields are the workload's inputs,
// all drawn from the run seed.
type op struct {
	class uint8
	key   uint64 // kv key, socialnet author, or blob size index
	arg   uint64 // value, media or payload seed; or a timeline page start
}

// client is one load goroutine's handle on a workload instance.
type client interface {
	// prepare builds o's input bytes (not timed).
	prepare(o op)
	// exec runs o against the system and returns the payload bytes it
	// moved; outputs are kept for check.
	exec(o op) (int64, error)
	// check verifies the outputs of the preceding exec.
	check(o op) error
	close()
}

// instance is a workload set up on a stack.
type instance interface {
	// stream is load goroutine w's input stream, drawn from seed.
	stream(w int, seed uint64) func() op
	client(w int, cur *atomic.Uint64) (client, error)
	// finish releases the workload's refs and verifies the final state
	// of everything it wrote.
	finish() error
	close()
}

// spec is one named workload: its traffic shape and how to set it up.
type spec struct {
	name    string
	classes []string
	// rate is the open-loop offered rate in ops/s; 0 runs closed loop.
	rate float64
	// growthPages is how many pool pages per second of load the
	// workload keeps (posts are never freed while it runs).
	growthPages float64
	setup       func(st *stack, seed uint64) (instance, error)
}

var specs = []spec{
	{
		name:    "kv-zipf",
		classes: []string{"read", "write"},
		setup:   setupKV,
	},
	{
		name:    "socialnet-open",
		classes: []string{"compose", "read-home", "read-user"},
		rate:    snRate,
		// Each compose keeps one adopted media copy until the end.
		growthPages: snRate * snComposePct / 100 * snMediaSize / pageSize,
		setup:       setupSocialNet,
	},
	{
		name:    "blob-chain",
		classes: []string{"blob-64k", "blob-256k", "blob-1024k"},
		setup:   setupBlob,
	},
}

// rng is the stream generator every workload draws from.
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// --- kv-zipf ---

const (
	kvKeys      = 1024
	kvValueSize = 4 << 10
	kvZipfS     = 0.99
	kvReadFrac  = 0.9
)

const (
	kvRead uint8 = iota
	kvWrite
)

// kvStore is YCSB-shaped kv straight on the pool: each key is one
// staged ref. Writes stage the new value and free the old one through
// one shared session, so the session that staged a ref (and tracks it
// for repair) is always the one that frees it.
type kvStore struct {
	st     *stack
	writer *pool.Client
	slots  []kvSlot
}

type kvSlot struct {
	mu   sync.RWMutex
	ref  dm.Ref
	seed uint64
}

func setupKV(st *stack, seed uint64) (instance, error) {
	w, p, err := st.session("kv-writer", nil)
	if err != nil {
		return nil, err
	}
	s := &kvStore{st: st, writer: p, slots: make([]kvSlot, kvKeys)}
	buf := make([]byte, kvValueSize)
	r := rng(seed)
	for k := range s.slots {
		vs := r.Uint64()
		apps.FillPayload(buf, vs)
		ref, err := w.StageRef(buf)
		if err != nil {
			return nil, fmt.Errorf("kv preload key %d: %w", k, err)
		}
		s.slots[k].ref, s.slots[k].seed = ref, vs
	}
	return s, nil
}

func (s *kvStore) stream(w int, seed uint64) func() op {
	r := rng(seed)
	keys := workload.NewZipf(kvKeys, kvZipfS, seed)
	return func() op {
		o := op{class: kvRead, key: keys.Next(), arg: r.Uint64()}
		if r.Float64() >= kvReadFrac {
			o.class = kvWrite
		}
		return o
	}
}

func (s *kvStore) client(w int, cur *atomic.Uint64) (client, error) {
	reads, _, err := s.st.session(fmt.Sprintf("kv-reader%d", w), cur)
	if err != nil {
		return nil, err
	}
	return &kvClient{
		s:      s,
		reads:  reads,
		writes: s.st.view(s.writer, "kv-writer", cur),
		buf:    make([]byte, kvValueSize),
		want:   make([]byte, kvValueSize),
	}, nil
}

// finish reads every key back once and checks its latest value.
func (s *kvStore) finish() error {
	buf := make([]byte, kvValueSize)
	want := make([]byte, kvValueSize)
	for k := range s.slots {
		sl := &s.slots[k]
		if err := s.writer.ReadRef(sl.ref, 0, buf); err != nil {
			return fmt.Errorf("kv final read key %d: %w", k, err)
		}
		apps.FillPayload(want, sl.seed)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("kv final value of key %d is wrong", k)
		}
	}
	return nil
}

func (s *kvStore) close() {}

type kvClient struct {
	s             *kvStore
	reads, writes liverpc.DM
	buf, want     []byte
	seed          uint64 // seed of the value the last read fetched
}

func (c *kvClient) prepare(o op) {
	if o.class == kvWrite {
		apps.FillPayload(c.buf, o.arg)
	}
}

func (c *kvClient) exec(o op) (int64, error) {
	sl := &c.s.slots[o.key]
	if o.class == kvRead {
		// The read lock keeps a concurrent write from freeing the ref
		// mid-read, standing in for a store's own ref counting.
		sl.mu.RLock()
		c.seed = sl.seed
		err := c.reads.ReadRef(sl.ref, 0, c.buf)
		sl.mu.RUnlock()
		return kvValueSize, err
	}
	ref, err := c.writes.StageRef(c.buf)
	if err != nil {
		return 0, err
	}
	sl.mu.Lock()
	old := sl.ref
	sl.ref, sl.seed = ref, o.arg
	sl.mu.Unlock()
	return kvValueSize, c.writes.FreeRef(old)
}

func (c *kvClient) check(o op) error {
	if o.class == kvWrite {
		return nil // checked by later reads and by finish
	}
	apps.FillPayload(c.want, c.seed)
	if !bytes.Equal(c.buf, c.want) {
		return fmt.Errorf("kv read of key %d returned wrong bytes", o.key)
	}
	return nil
}

func (c *kvClient) close() {}

// --- socialnet-open ---

const (
	snRate        = 500
	snUsers       = 64
	snZipfS       = 0.99
	snComposePct  = 60
	snReadHomePct = 30
	snMediaSize   = 8 << 10
	snFrontends   = 2
	snPage        = 4
	// snSweepPage is how many posts one final-sweep read returns.
	snSweepPage = 64
)

const (
	snCompose uint8 = iota
	snReadHome
	snReadUser
)

// Media is self-describing: an 8-byte seed and 8-byte author header,
// then apps.FillPayload(seed), so every post a timeline returns can be
// checked without remembering what was composed.
const snHeader = 16

func fillMedia(buf []byte, seed, author uint64) {
	binary.LittleEndian.PutUint64(buf, seed)
	binary.LittleEndian.PutUint64(buf[8:], author)
	apps.FillPayload(buf[snHeader:], seed)
}

// checkMedia verifies one post's media; scratch is a buffer of the
// media size. author < 0 accepts any author.
func checkMedia(buf, scratch []byte, author int64) error {
	if len(buf) != snMediaSize {
		return fmt.Errorf("socialnet post is %d bytes, want %d", len(buf), snMediaSize)
	}
	seed := binary.LittleEndian.Uint64(buf)
	got := binary.LittleEndian.Uint64(buf[8:])
	if author >= 0 && got != uint64(author) {
		return fmt.Errorf("socialnet user timeline of %d returned a post by %d", author, got)
	}
	apps.FillPayload(scratch[snHeader:], seed)
	if !bytes.Equal(buf[snHeader:], scratch[snHeader:]) {
		return fmt.Errorf("socialnet post (seed %d) has wrong media bytes", seed)
	}
	return nil
}

// socialNet is the paper's headline app: the trimmed social network
// with one post preloaded per author.
type socialNet struct {
	st       *stack
	dep      *liverpc.SocialNetDeployment
	admin    liverpc.DM
	composed atomic.Int64 // composes acknowledged after setup
}

var rpcCfg = liverpc.Config{}

func setupSocialNet(st *stack, seed uint64) (instance, error) {
	dep, err := liverpc.DeploySocialNetWith(st.factory(
		"sn-storage", "sn-compose", "sn-home", "sn-user", "sn-frontend0", "sn-frontend1"),
		snFrontends, rpcCfg)
	if err != nil {
		return nil, err
	}
	s := &socialNet{st: st, dep: dep}
	if s.admin, _, err = st.session("sn-admin", nil); err != nil {
		dep.Close()
		return nil, err
	}
	cl := liverpc.NewSocialNetClient(s.admin, dep.Frontend, rpcCfg)
	defer cl.Close()
	media := make([]byte, snMediaSize)
	r := rng(seed)
	for u := uint64(0); u < snUsers; u++ {
		fillMedia(media, r.Uint64(), u)
		if _, err := cl.ComposeAs(u, media); err != nil {
			dep.Close()
			return nil, fmt.Errorf("socialnet preload user %d: %w", u, err)
		}
	}
	return s, nil
}

func (s *socialNet) stream(w int, seed uint64) func() op {
	r := rng(seed)
	users := workload.NewZipf(snUsers, snZipfS, seed)
	return func() op {
		o := op{arg: r.Uint64()}
		switch p := r.IntN(100); {
		case p < snComposePct:
			o.class, o.key = snCompose, users.Next()
		case p < snComposePct+snReadHomePct:
			o.class = snReadHome
		default:
			o.class, o.key = snReadUser, users.Next()
		}
		return o
	}
}

func (s *socialNet) client(w int, cur *atomic.Uint64) (client, error) {
	sess, _, err := s.st.session(fmt.Sprintf("sn-client%d", w), cur)
	if err != nil {
		return nil, err
	}
	return &snClient{
		s:       s,
		cl:      liverpc.NewSocialNetClient(sess, s.dep.Frontends[w%len(s.dep.Frontends)], rpcCfg),
		media:   make([]byte, snMediaSize),
		scratch: make([]byte, snMediaSize),
	}, nil
}

// finish reads back every post composed since setup, checks it, and
// frees it, which returns the cluster's live refs to the post-setup
// baseline. The store must hold exactly the acknowledged composes.
func (s *socialNet) finish() error {
	caller := liverpc.NewCaller(s.admin, rpcCfg)
	defer caller.Close()
	read := func(start uint64, n int) ([]liverpc.Payload, error) {
		// sn.read's page request: (start u64, count u16).
		params := liverpc.Inline(rpc.NewEnc(10).U64(start).U16(uint16(n)).Bytes())
		return caller.CallOpts(s.dep.Frontend, liverpc.SNRead, liverpc.CallOpts{Idempotent: true}, params)
	}
	total := uint64(snUsers) + uint64(s.composed.Load())
	// Timelines wrap modulo the store size, so the post after the last
	// acknowledged one must be post 0 again.
	ends, err := read(total-1, 2)
	if err != nil {
		return fmt.Errorf("socialnet final read: %w", err)
	}
	first, err := read(0, 1)
	if err != nil {
		return fmt.Errorf("socialnet final read: %w", err)
	}
	if len(ends) != 2 || len(first) != 1 || ends[1].Ref() != first[0].Ref() {
		return fmt.Errorf("socialnet store does not hold exactly %d posts", total)
	}
	scratch := make([]byte, snMediaSize)
	var posts []liverpc.Payload
	for start := uint64(snUsers); start < total; start += snSweepPage {
		n := int(min(snSweepPage, total-start))
		page, err := read(start, n)
		if err != nil {
			return fmt.Errorf("socialnet final read: %w", err)
		}
		if len(page) != n {
			return fmt.Errorf("socialnet final read returned %d posts, want %d", len(page), n)
		}
		for _, p := range page {
			buf, err := caller.Fetch(p)
			if err != nil {
				return fmt.Errorf("socialnet final fetch: %w", err)
			}
			if err := checkMedia(buf, scratch, -1); err != nil {
				return err
			}
		}
		posts = append(posts, page...)
	}
	for _, p := range posts {
		if err := s.admin.FreeRef(p.Ref()); err != nil {
			return fmt.Errorf("socialnet free post: %w", err)
		}
	}
	return nil
}

func (s *socialNet) close() { s.dep.Close() }

type snClient struct {
	s              *socialNet
	cl             *liverpc.SocialNetClient
	media, scratch []byte
	posts          [][]byte
	id             uint64
}

func (c *snClient) prepare(o op) {
	if o.class == snCompose {
		fillMedia(c.media, o.arg, o.key)
	}
}

func (c *snClient) exec(o op) (int64, error) {
	var err error
	switch o.class {
	case snCompose:
		if c.id, err = c.cl.ComposeAs(o.key, c.media); err != nil {
			return 0, err
		}
		c.s.composed.Add(1)
		return snMediaSize, nil
	case snReadHome:
		c.posts, err = c.cl.ReadHome(o.arg, snPage)
	default:
		c.posts, err = c.cl.ReadUser(o.key, o.arg, snPage)
	}
	var n int64
	for _, p := range c.posts {
		n += int64(len(p))
	}
	return n, err
}

func (c *snClient) check(o op) error {
	if o.class == snCompose {
		if c.id < snUsers {
			return fmt.Errorf("socialnet compose returned preloaded post id %d", c.id)
		}
		return nil
	}
	if len(c.posts) != snPage {
		return fmt.Errorf("socialnet timeline returned %d posts, want %d", len(c.posts), snPage)
	}
	author := int64(-1)
	if o.class == snReadUser {
		author = int64(o.key)
	}
	for _, p := range c.posts {
		if err := checkMedia(p, c.scratch, author); err != nil {
			return err
		}
	}
	return nil
}

func (c *snClient) close() { c.cl.Close() }

// --- blob-chain ---

const blobHops = 3

var blobSizes = []int{64 << 10, 256 << 10, 1 << 20}

type blobChain struct {
	st  *stack
	dep *liverpc.ChainDeployment
}

func setupBlob(st *stack, seed uint64) (instance, error) {
	dep, err := liverpc.DeployChainWith(blobHops,
		st.factory("chain-hop0", "chain-hop1", "chain-hop2", "chain-client"), rpcCfg)
	if err != nil {
		return nil, err
	}
	return &blobChain{st: st, dep: dep}, nil
}

// stream sends the sizes round robin, each goroutine starting at its
// own index so the two do not move in phase.
func (b *blobChain) stream(w int, seed uint64) func() op {
	r := rng(seed)
	next := w
	return func() op {
		i := next % len(blobSizes)
		next++
		return op{class: uint8(i), key: uint64(i), arg: r.Uint64()}
	}
}

func (b *blobChain) client(w int, cur *atomic.Uint64) (client, error) {
	sess, _, err := b.st.session(fmt.Sprintf("chain-client%d", w), cur)
	if err != nil {
		return nil, err
	}
	return &blobClient{
		cl:  liverpc.NewChainClient(sess, b.dep.Addrs[0], rpcCfg),
		buf: make([]byte, blobSizes[len(blobSizes)-1]),
	}, nil
}

func (b *blobChain) finish() error { return nil }

func (b *blobChain) close() { b.dep.Close() }

type blobClient struct {
	cl  *liverpc.ChainClient
	buf []byte
	sum uint64
}

func (c *blobClient) payload(o op) []byte { return c.buf[:blobSizes[o.key]] }

func (c *blobClient) prepare(o op) { apps.FillPayload(c.payload(o), o.arg) }

func (c *blobClient) exec(o op) (int64, error) {
	var err error
	c.sum, err = c.cl.Do(c.payload(o))
	return int64(blobSizes[o.key]), err
}

func (c *blobClient) check(o op) error {
	if want := apps.Aggregate(c.payload(o)); c.sum != want {
		return fmt.Errorf("blob chain aggregate %d, want %d", c.sum, want)
	}
	return nil
}

func (c *blobClient) close() { c.cl.Close() }
