package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"approxqo/internal/core"
	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qon"
	"approxqo/internal/workload"
)

// instance is one distinct query a workload sends, with the exact
// optimum the oracle computed for it before any request was timed.
type instance struct {
	family  string
	n       int
	in      *qon.Instance
	body    []byte  // request body sending in as generated
	toks    *tokens // pre-encoded values for relabeled bodies (hit-relabeled only)
	optimum num.Num
}

// workloadDef is a named traffic mix: the instances it sends, the
// warm-up it sends during set-up, and the fixed request sequence of the
// timed window.
type workloadDef struct {
	name string
	// tailPct is the percentile reported as tail_ms: the highest one that
	// keeps at least ten samples beyond it at this workload's rate.
	tailPct float64
	// route is the per-job route flag every request carries.
	route bool
	// relabel makes every timed request a fresh relabeling of its
	// instance instead of its byte-identical body.
	relabel bool
	seed    int64
	insts   []*instance
	warm    []int // instance indices sent during set-up
	// order maps the timed request index to an instance index. Hit and
	// Zipf sequences wrap around; miss-unique sequences end instead.
	order []int32
	wrap  bool
	// maxRate (requests/s) sizes the preallocated records of a window:
	// about four times this workload's rate on two cores.
	maxRate float64
	// bin is the number of consecutive requests the rate metrics are
	// taken over before their median across bins is reported: whole
	// shuffled rounds where the sequence has them, about 1-2 s of work.
	bin int
}

// Workload names, in the order BENCHMARK.json lists them.
const (
	hitRelabeled = "hit-relabeled"
	missUnique   = "miss-unique"
	zipfMixed    = "zipf-mixed"
)

// Sizes of the three workloads. missPool bounds the never-seen
// instances one miss-unique run can send: about 1.5 times what two
// clients complete in a 15 s window on two cores at the time of
// writing. A server fast enough to send them all sooner ends the window
// at the last one; the rates stay exact, over a shorter window.
const (
	hitSeedsPerCell = 4
	missPool        = 924 // 12 epochs of the 77 (family, n) cells
	zipfInstances   = 1024
	zipfExponent    = 1.1
	seqLen          = 1 << 19
)

// families lists every instance population, in workload.Families order.
func families() []string {
	var out []string
	for _, f := range workload.Families() {
		out = append(out, string(f))
	}
	return out
}

// buildWorkload generates a workload's instances and sequences from
// seed, and runs the oracle on every instance. Nothing here touches the
// server.
func buildWorkload(ctx context.Context, name string, seed int64) (*workloadDef, error) {
	w := &workloadDef{name: name, seed: seed}
	var err error
	switch name {
	case hitRelabeled:
		err = w.buildHit()
	case missUnique:
		err = w.buildMiss()
	case zipfMixed:
		err = w.buildZipf()
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, hitRelabeled, missUnique, zipfMixed)
	}
	if err != nil {
		return nil, err
	}
	for _, in := range w.insts {
		if in.body, err = requestBody(in.in, w.route); err != nil {
			return nil, err
		}
		if w.relabel {
			in.toks = newTokens(in.in)
		}
	}
	if err := runOracle(ctx, w.insts); err != nil {
		return nil, err
	}
	return w, nil
}

// buildHit: about 200 instances across all families, warmed at set-up;
// every timed request is a fresh relabeling of one of them, visited in
// seeded shuffled rounds so each run covers every instance equally.
func (w *workloadDef) buildHit() error {
	w.tailPct, w.relabel, w.wrap = 99.9, true, true
	for _, f := range families() {
		if isCliquered(f) {
			// The workload package's promise-pair instances depend on n
			// alone: one per size, up to 16.
			for n := 10; n <= 16; n++ {
				in, err := (&workload.Spec{Shape: f, N: n}).Generate()
				if err != nil {
					return err
				}
				w.insts = append(w.insts, &instance{family: f, n: n, in: in})
			}
			continue
		}
		for n := 10; n <= 14; n++ {
			for k := 0; k < hitSeedsPerCell; k++ {
				s := mix(w.seed, int64(n), int64(k), int64(len(w.insts)))
				in, err := (&workload.Spec{Shape: f, N: n, Seed: s}).Generate()
				if err != nil {
					return err
				}
				w.insts = append(w.insts, &instance{family: f, n: n, in: in})
			}
		}
	}
	if err := requireDistinct(w.insts); err != nil {
		return err
	}
	for i := range w.insts {
		w.warm = append(w.warm, i)
	}
	w.order = shuffledRounds(len(w.insts), seqLen, w.seed)
	w.bin, w.maxRate = 10*len(w.insts), 8000
	return nil
}

// buildMiss: never-seen instances of every family at n 8..14 on the
// full ensemble, in seeded shuffled rounds over the (family, n) cells so
// every run sends the same mix of sizes; the warm-up sends 22 further
// instances (every family at n = 8 and 10).
func (w *workloadDef) buildMiss() error {
	w.tailPct = 95
	fams := families()
	type cell struct {
		f string
		n int
	}
	var cells []cell
	for _, f := range fams {
		for n := 8; n <= 14; n++ {
			cells = append(cells, cell{f, n})
		}
	}
	seen := map[string]bool{}
	add := func(f string, n int, s int64) error {
		in, err := uniqueInstance(f, n, s, seen)
		if err != nil {
			return err
		}
		w.insts = append(w.insts, &instance{family: f, n: n, in: in})
		return nil
	}
	for _, n := range []int{8, 10} {
		for _, f := range fams {
			if err := add(f, n, mix(w.seed, 1, int64(n), int64(len(w.insts)))); err != nil {
				return err
			}
			w.warm = append(w.warm, len(w.insts)-1)
		}
	}
	first := len(w.insts)
	rng := rand.New(rand.NewSource(w.seed))
	for len(w.insts)-first < missPool {
		for _, c := range rng.Perm(len(cells)) {
			if err := add(cells[c].f, cells[c].n, mix(w.seed, 2, int64(c), int64(len(w.insts)))); err != nil {
				return err
			}
		}
	}
	for i := first; i < len(w.insts); i++ {
		w.order = append(w.order, int32(i))
	}
	w.bin, w.maxRate = len(cells), 200
	return nil
}

// buildZipf: 1024 instances (four times the cache) at n 8..12 with
// route:true, picked by a Zipf law and always re-sent byte-identical.
// Rank r holds (family, n) cell r mod 55, so the hot set mixes every
// family and size. The warm-up sends the 256 hottest ranks.
func (w *workloadDef) buildZipf() error {
	w.tailPct, w.route, w.wrap = 99, true, true
	fams := families()
	seen := map[string]bool{}
	for r := 0; r < zipfInstances; r++ {
		c := r % (len(fams) * 5)
		f, n := fams[c%len(fams)], 8+c/len(fams)
		in, err := uniqueInstance(f, n, mix(w.seed, 3, int64(r)), seen)
		if err != nil {
			return err
		}
		w.insts = append(w.insts, &instance{family: f, n: n, in: in})
	}
	for r := 0; r < 256; r++ {
		w.warm = append(w.warm, r)
	}
	rng := rand.New(rand.NewSource(w.seed))
	z := rand.NewZipf(rng, zipfExponent, 1, zipfInstances-1)
	w.order = make([]int32, seqLen)
	for i := range w.order {
		w.order[i] = int32(z.Uint64())
	}
	w.bin, w.maxRate = 512, 1200
	return nil
}

// request returns the instance index of timed request i, or false when
// a non-wrapping sequence is exhausted.
func (w *workloadDef) request(i int) (int, bool) {
	if i >= len(w.order) {
		if !w.wrap {
			return 0, false
		}
		i %= len(w.order)
	}
	return int(w.order[i]), true
}

// body returns the request body of timed request i for instance idx,
// built into sc's reusable buffer when the workload relabels.
func (w *workloadDef) body(i, idx int, sc *relabelScratch) []byte {
	in := w.insts[idx]
	if !w.relabel {
		return in.body
	}
	perm := sc.perm(w.seed, i, in)
	sc.buf = in.toks.appendBody(sc.buf[:0], perm, sc.inv)
	return sc.buf
}

// sentInstance is the instance timed request i actually carried.
func (w *workloadDef) sentInstance(i, idx int) *qon.Instance {
	in := w.insts[idx]
	if !w.relabel {
		return in.in
	}
	var sc relabelScratch
	return qon.Relabel(in.in, sc.perm(w.seed, i, in))
}

func isCliquered(f string) bool {
	return f == string(workload.CliqueredYes) || f == string(workload.CliqueredNo)
}

// generate builds one instance of family f at size n. The cliquered
// families of the workload package are fixed per n, so distinct
// instances of them come from the same f_N reduction (core.FN with the
// family's α = 2^4 and ω pair) applied to seeded random graphs on the
// promised side: a planted ωYes-clique for YES, a random ωNo-partite
// graph (clique number at most ωNo) for NO.
func generate(f string, n int, seed int64) (*qon.Instance, error) {
	if !isCliquered(f) {
		return (&workload.Spec{Shape: f, N: n, Seed: seed}).Generate()
	}
	// The same ω pair as the workload package: c = 3/4, d = 1/2.
	wYes, wNo := int(0.75*float64(n)), int(0.25*float64(n))
	var g *graph.Graph
	if f == string(workload.CliqueredYes) {
		g, _ = graph.PlantedClique(n, wYes, 0.5, seed)
	} else {
		rng := rand.New(rand.NewSource(seed))
		part := rng.Perm(n)
		g = graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if part[u]%wNo != part[v]%wNo && rng.Float64() < 0.75 {
					g.AddEdge(u, v)
				}
			}
		}
	}
	fn, err := core.FN(g, core.FNParams{A: 4, OmegaYes: wYes, OmegaNo: wNo})
	if err != nil {
		return nil, err
	}
	return fn.QON, nil
}

// uniqueInstance generates an instance of (f, n) whose canonical
// fingerprint is not in seen, stepping the seed past duplicates (small
// random promise graphs repeat up to relabeling).
func uniqueInstance(f string, n int, seed int64, seen map[string]bool) (*qon.Instance, error) {
	for try := int64(0); try < 64; try++ {
		in, err := generate(f, n, seed+try*7919)
		if err != nil {
			return nil, err
		}
		fp := qon.Fingerprint(in)
		if !seen[fp] {
			seen[fp] = true
			return in, nil
		}
	}
	return nil, fmt.Errorf("no fresh %s instance at n=%d after 64 seeds", f, n)
}

// requireDistinct fails when two instances are relabelings of each
// other: each must own its cache entry.
func requireDistinct(insts []*instance) error {
	seen := map[string]bool{}
	for _, in := range insts {
		fp := qon.Fingerprint(in.in)
		if seen[fp] {
			return fmt.Errorf("duplicate %s instance at n=%d", in.family, in.n)
		}
		seen[fp] = true
	}
	return nil
}

// mix derives a sub-seed from a seed and a path of integers
// (splitmix64 over the sequence).
func mix(seed int64, path ...int64) int64 {
	h := uint64(seed)
	for _, p := range path {
		h = splitmix(h ^ uint64(p)*0x9e3779b97f4a7c15)
	}
	return int64(h >> 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shuffledRounds returns length indices made of consecutive seeded
// shuffles of 0..k-1.
func shuffledRounds(k, length int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, 0, length)
	for len(out) < length {
		for _, v := range rng.Perm(k) {
			if len(out) == length {
				break
			}
			out = append(out, int32(v))
		}
	}
	return out
}

// requestBody encodes the tagged /optimize request for an inline
// instance.
func requestBody(in *qon.Instance, route bool) ([]byte, error) {
	job := map[string]any{"instance": in}
	if route {
		job["route"] = true
	}
	return json.Marshal(map[string]any{"job": job})
}

// tokens holds an instance's values pre-encoded as JSON, so a relabeled
// request body is assembled by permuting byte slices instead of
// relabeling and re-marshalling the instance on the client's clock.
type tokens struct {
	n     int
	edges [][2]int
	t     [][]byte
	s, w  [][][]byte
}

func newTokens(in *qon.Instance) *tokens {
	n := in.N()
	enc := func(v num.Num) []byte {
		b, err := v.MarshalJSON()
		if err != nil {
			panic(err) // generated instances hold only constructed values
		}
		return b
	}
	tk := &tokens{n: n, edges: in.Q.Edges(), t: make([][]byte, n), s: make([][][]byte, n), w: make([][][]byte, n)}
	for i := 0; i < n; i++ {
		tk.t[i] = enc(in.T[i])
		tk.s[i] = make([][]byte, n)
		tk.w[i] = make([][]byte, n)
		for j := 0; j < n; j++ {
			tk.s[i][j] = enc(in.S[i][j])
			tk.w[i][j] = enc(in.W[i][j])
		}
	}
	return tk
}

// appendBody appends the request body of the instance relabeled by
// perm (relation i becomes perm[i], as qon.Relabel). inv is scratch of
// length n.
func (tk *tokens) appendBody(dst []byte, perm, inv []int) []byte {
	n := tk.n
	for i, p := range perm {
		inv[p] = i
	}
	dst = append(dst, `{"job":{"instance":{"query_graph":{"n":`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, `,"edges":[`...)
	for k, e := range tk.edges {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(perm[e[0]]), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(perm[e[1]]), 10)
		dst = append(dst, ']')
	}
	matrix := func(m [][][]byte) {
		for a := 0; a < n; a++ {
			if a > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			row := m[inv[a]]
			for b := 0; b < n; b++ {
				if b > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, row[inv[b]]...)
			}
			dst = append(dst, ']')
		}
	}
	dst = append(dst, `]},"selectivities":[`...)
	matrix(tk.s)
	dst = append(dst, `],"sizes":[`...)
	for a := 0; a < n; a++ {
		if a > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, tk.t[inv[a]]...)
	}
	dst = append(dst, `],"access_costs":[`...)
	matrix(tk.w)
	return append(dst, `]}}}`...)
}

// relabelScratch is one client's reusable state for relabeled bodies.
type relabelScratch struct {
	buf       []byte
	pbuf, inv []int
}

// perm returns the relabeling of timed request i: a Fisher-Yates
// shuffle driven by splitmix64 from (seed, i), redrawn while it maps
// the instance onto itself, so no timed request carries the warm-up
// instance unchanged and every hit is a canonical one.
func (sc *relabelScratch) perm(seed int64, i int, inst *instance) []int {
	n := inst.n
	if cap(sc.pbuf) < n {
		sc.pbuf, sc.inv = make([]int, n), make([]int, n)
	}
	p := sc.pbuf[:n]
	sc.inv = sc.inv[:n]
	x := uint64(mix(seed, 4, int64(i)))
	for {
		for k := range p {
			p[k] = k
		}
		for k := n - 1; k > 0; k-- {
			x = splitmix(x)
			j := int(x % uint64(k+1))
			p[k], p[j] = p[j], p[k]
		}
		if !fixes(inst, p) {
			return p
		}
	}
}

// fixes reports whether relabeling by p leaves the instance unchanged.
// Only the cliquered promise-pair instances (uniform values on a
// complete multipartite graph) have automorphisms besides the identity;
// the random-valued families are checked for the identity alone.
func fixes(inst *instance, p []int) bool {
	if !isCliquered(inst.family) {
		for k, v := range p {
			if k != v {
				return false
			}
		}
		return true
	}
	in := inst.in
	for a := range p {
		if !in.T[p[a]].Equal(in.T[a]) {
			return false
		}
		for b := range p {
			if a != b && (in.Q.HasEdge(p[a], p[b]) != in.Q.HasEdge(a, b) ||
				!in.S[p[a]][p[b]].Equal(in.S[a][b]) || !in.W[p[a]][p[b]].Equal(in.W[a][b])) {
				return false
			}
		}
	}
	return true
}

// checkRelabeling verifies the byte-level relabeling against
// qon.Relabel on one fresh relabeling per instance: the decoded body
// must equal the relabeled instance entry for entry.
func checkRelabeling(w *workloadDef) error {
	if !w.relabel {
		return nil
	}
	var sc relabelScratch
	for idx, inst := range w.insts {
		i := -1 - idx // request indices the timed window never uses
		body := w.body(i, idx, &sc)
		var doc struct {
			Job struct {
				Instance *qon.Instance `json:"instance"`
			} `json:"job"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("relabeled body of %s n=%d does not decode: %w", inst.family, inst.n, err)
		}
		want := w.sentInstance(i, idx)
		if !sameInstance(doc.Job.Instance, want) {
			return fmt.Errorf("relabeled body of %s n=%d differs from qon.Relabel", inst.family, inst.n)
		}
	}
	return nil
}

func sameInstance(a, b *qon.Instance) bool {
	n := a.N()
	if n != b.N() {
		return false
	}
	for i := 0; i < n; i++ {
		if !a.T[i].Equal(b.T[i]) {
			return false
		}
		for j := 0; j < n; j++ {
			if i != j && (a.Q.HasEdge(i, j) != b.Q.HasEdge(i, j) ||
				!a.S[i][j].Equal(b.S[i][j]) || !a.W[i][j].Equal(b.W[i][j])) {
				return false
			}
		}
	}
	return true
}

// runOracle computes every instance's optimum with the serial subset DP
// on two workers (see oracle.go).
func runOracle(ctx context.Context, insts []*instance) error {
	var wg sync.WaitGroup
	errs := make([]error, len(insts))
	next := make(chan int)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				insts[i].optimum, errs[i] = oracle(ctx, insts[i].in)
			}
		}()
	}
	for i := range insts {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle on %s n=%d: %w", insts[i].family, insts[i].n, err)
		}
	}
	return nil
}
