package qon_test

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qon"
	"approxqo/internal/workload"
)

// relabelCorpusMinDiscrete is a floor on the corpus cases RelabelID
// refines to a discrete partition (2,340 of 2,808 when it was written);
// a drop below it means relabeled hits fall back to the canonical
// search far more often than they did.
const relabelCorpusMinDiscrete = 2300

// Over the pinned corpus, wherever RelabelID is ok: all three
// relabelings of an instance are ok with one digest, and π∘σ⁻¹ taken
// from one relabeling, composed with another's σ, is bit for bit the
// permutation CanonicalID returns for that other one — the serving
// cache's relabel index rests on exactly this. The cliquered families
// are never discrete.
func TestRelabelIDMatchesCanonicalIDOnCorpus(t *testing.T) {
	discrete := 0
	forEachCorpusInstance(t, func(spec workload.Spec, rels []*qon.Instance) {
		type id struct {
			sigma, pi []int
			digest    [sha256.Size]byte
			ok        bool
		}
		ids := make([]id, len(rels))
		for i, rel := range rels {
			ids[i].sigma, ids[i].digest, ids[i].ok = qon.RelabelID(rel)
			_, ids[i].pi = qon.CanonicalID(rel)
		}
		for i := range ids {
			if ids[i].ok != ids[0].ok || ids[i].digest != ids[0].digest {
				t.Fatalf("%+v: relabeling %d has ok=%v digest %x, relabeling 0 ok=%v digest %x",
					spec, i, ids[i].ok, ids[i].digest, ids[0].ok, ids[0].digest)
			}
		}
		if !ids[0].ok {
			return
		}
		if want := relabeledDigest(rels[0], ids[0].sigma); ids[0].digest != want {
			t.Fatalf("%+v: digest %x, the relabeled instance hashes to %x", spec, ids[0].digest, want)
		}
		if spec.Shape == string(workload.CliqueredYes) || spec.Shape == string(workload.CliqueredNo) {
			t.Fatalf("%+v: a symmetric cliquered instance refined to a discrete partition", spec)
		}
		discrete += len(rels)
		for p := range ids {
			piP := make([]int, len(ids[p].pi)) // π_P = π∘σ⁻¹
			for v, s := range ids[p].sigma {
				piP[s] = ids[p].pi[v]
			}
			for r := range ids {
				for v, s := range ids[r].sigma {
					if piP[s] != ids[r].pi[v] {
						t.Fatalf("%+v: π_P∘σ of relabeling %d through relabeling %d is %v at %d, CanonicalID says %v",
							spec, r, p, piP[s], v, ids[r].pi)
					}
				}
			}
		}
	})
	t.Logf("%d corpus cases refine to a discrete partition", discrete)
	if discrete < relabelCorpusMinDiscrete {
		t.Fatalf("%d corpus cases refine discretely, want at least %d", discrete, relabelCorpusMinDiscrete)
	}
}

// relabeledDigest is the reference for RelabelID's digest: the SHA-256
// of Relabel(in, sigma) written out row by row — a header, then each
// relation's size and, for every other relation, the edge bit, the
// selectivity and the access cost, every value as its num.Key.
func relabeledDigest(in *qon.Instance, sigma []int) [sha256.Size]byte {
	r := qon.Relabel(in, sigma)
	n := r.N()
	enc := binary.AppendUvarint([]byte("qon-relabel\x00"), uint64(n))
	for u := 0; u < n; u++ {
		enc = r.T[u].Key().Append(enc)
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			e := byte(0)
			if r.Q.HasEdge(u, v) {
				e = 1
			}
			enc = append(enc, e)
			enc = r.S[u][v].Key().Append(enc)
			enc = r.W[u][v].Key().Append(enc)
		}
	}
	return sha256.Sum256(enc)
}

// discreteInstance returns a workload instance RelabelID refines
// discretely, with its digest.
func discreteInstance(t *testing.T, shape workload.Shape, n int) (*qon.Instance, [sha256.Size]byte) {
	t.Helper()
	in, err := workload.Generate(workload.Params{N: n, Shape: shape, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, d, ok := qon.RelabelID(in)
	if !ok {
		t.Fatalf("%s n=%d is not discrete", shape, n)
	}
	return in, d
}

// nextUp returns v plus one unit in the last place of num's precision:
// 2^(e−num.Prec+1) for v in [2^e, 2^(e+1)), the smallest change a Num
// of v's magnitude can carry.
func nextUp(v num.Num) num.Num {
	k := v.Key()
	bl := 0
	for i, w := range k.M {
		if w != 0 {
			bl = 64*i + bits.Len64(w)
		}
	}
	up := v.Add(num.Pow2(k.Exp + int64(bl) - num.Prec))
	if !v.Less(up) {
		panic("nextUp: the increment rounded away")
	}
	return up
}

// A one-ulp change to one size, one off-diagonal selectivity or one
// access cost, and one flipped edge, each change the digest; RelabelID
// reads no validity rule, so the changed instances need not validate.
func TestRelabelIDDistinguishesOneULP(t *testing.T) {
	in, base := discreteInstance(t, workload.Random, 10)
	n := in.N()
	changes := map[string]func(*qon.Instance){
		"T[3]":    func(c *qon.Instance) { c.T[3] = nextUp(c.T[3]) },
		"S[2][5]": func(c *qon.Instance) { c.S[2][5] = nextUp(c.S[2][5]) },
		"W[4][1]": func(c *qon.Instance) { c.W[4][1] = nextUp(c.W[4][1]) },
		"W[1][4]": func(c *qon.Instance) { c.W[1][4] = nextUp(c.W[1][4]) },
		"edge 0-6": func(c *qon.Instance) {
			if c.Q.HasEdge(0, 6) {
				c.Q.RemoveEdge(0, 6)
			} else {
				c.Q.AddEdge(0, 6)
			}
		},
	}
	for name, change := range changes {
		c := qon.Relabel(in, identity(n))
		change(c)
		_, d, ok := qon.RelabelID(c)
		if !ok {
			t.Fatalf("%s: changed instance is not discrete", name)
		}
		if d == base {
			t.Fatalf("%s: digest unchanged", name)
		}
	}
}

// Diagonal entries are read by no cost model and by neither identity:
// changing them keeps sigma and the digest.
func TestRelabelIDIgnoresDiagonal(t *testing.T) {
	in, base := discreteInstance(t, workload.Star, 9)
	sigma, _, _ := qon.RelabelID(in)
	c := qon.Relabel(in, identity(in.N()))
	for v := range c.S {
		c.S[v][v] = num.FromInt64(int64(3 + v))
		c.W[v][v] = num.Pow2(int64(-v))
	}
	got, d, ok := qon.RelabelID(c)
	if !ok || d != base || !slices.Equal(got, sigma) {
		t.Fatalf("diagonal change moved the identity: ok=%v digest %x (want %x), sigma %v (want %v)", ok, d, base, got, sigma)
	}
}

// The f_N reduction's uniform cliques have large automorphism groups,
// so refinement alone cannot order them: RelabelID declines.
func TestRelabelIDDeclinesCliquered(t *testing.T) {
	for _, shape := range []workload.Shape{workload.CliqueredYes, workload.CliqueredNo} {
		for _, n := range []int{8, 12, 16} {
			in, err := (&workload.Spec{Shape: string(shape), N: n, Seed: 1}).Generate()
			if err != nil {
				t.Fatal(err)
			}
			if sigma, d, ok := qon.RelabelID(in); ok || sigma != nil || d != ([sha256.Size]byte{}) {
				t.Fatalf("%s n=%d: ok=%v sigma %v digest %x, want a decline", shape, n, ok, sigma, d)
			}
		}
	}
}

// FuzzRelabelID checks RelabelID on a fuzzed instance and permutation:
// the instance and its relabeling agree on ok and digest, their color
// orders correspond (σ' = σ∘perm⁻¹), relabeling by σ is a fixed point,
// and π∘σ⁻¹ carries the relabeling's σ onto CanonicalID's permutation.
// Values come from a small palette — repeats make symmetric, non-discrete
// instances common — that includes big-float values, one of them
// numerically equal to a dyadic one.
func FuzzRelabelID(f *testing.F) {
	f.Add(uint8(5), int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(3), int64(2), []byte{})
	f.Add(uint8(9), int64(3), []byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(uint8(1), int64(4), []byte{3})
	f.Fuzz(func(t *testing.T, size uint8, seed int64, data []byte) {
		n := 1 + int(size)%10
		in := fuzzInstance(n, data)
		perm := rand.New(rand.NewSource(seed)).Perm(n)
		rel := qon.Relabel(in, perm)

		sigma, d, ok := qon.RelabelID(in)
		relSigma, relD, relOK := qon.RelabelID(rel)
		if ok != relOK || d != relD {
			t.Fatalf("relabeling changed the identity: ok %v→%v, digest %x→%x", ok, relOK, d, relD)
		}
		if !ok {
			return
		}
		for v, p := range perm {
			if relSigma[p] != sigma[v] {
				t.Fatalf("color orders do not correspond: σ=%v, σ'=%v, perm=%v", sigma, relSigma, perm)
			}
		}
		if want := relabeledDigest(in, sigma); d != want {
			t.Fatalf("digest %x, the relabeled instance hashes to %x", d, want)
		}
		fixed, fixedD, fixedOK := qon.RelabelID(qon.Relabel(in, sigma))
		if !fixedOK || fixedD != d || !slices.Equal(fixed, identity(n)) {
			t.Fatalf("relabeling by σ is not a fixed point: ok=%v σ=%v", fixedOK, fixed)
		}
		_, pi := qon.CanonicalID(in)
		_, relPi := qon.CanonicalID(rel)
		piP := make([]int, n)
		for v, s := range sigma {
			piP[s] = pi[v]
		}
		for v, s := range relSigma {
			if piP[s] != relPi[v] {
				t.Fatalf("π_P∘σ' = %v at %d, CanonicalID says %v", piP[s], v, relPi)
			}
		}
	})
}

// fuzzPalette is the value palette of fuzzInstance. The last two are
// big-float values: 2^(2^30+5), and 3/4 computed through it, which is
// numerically the dyadic 3/4 above it.
var fuzzPalette = func() []num.Num {
	huge := num.Pow2(1<<30 + 5)
	return []num.Num{
		num.One(), num.FromInt64(2), num.FromInt64(1000), num.FromFloat64(0.5),
		num.FromFloat64(0.75), num.FromFloat64(0.1), huge, huge.Mul(num.FromFloat64(0.75)).Div(huge),
	}
}()

// fuzzInstance builds an n-relation instance from data: one byte per
// size, edge bit, selectivity and access cost, in that order, cycling
// through data (all 1 when it is empty). Nothing is validated.
func fuzzInstance(n int, data []byte) *qon.Instance {
	k := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[k%len(data)]
		k++
		return b
	}
	val := func() num.Num { return fuzzPalette[int(next())%len(fuzzPalette)] }
	in := &qon.Instance{Q: graph.New(n), T: make([]num.Num, n), S: make([][]num.Num, n), W: make([][]num.Num, n)}
	for v := range in.T {
		in.T[v] = val()
		in.S[v] = make([]num.Num, n)
		in.W[v] = make([]num.Num, n)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u < v && next()&1 == 1 {
				in.Q.AddEdge(u, v)
			}
			in.S[u][v] = val()
			in.W[u][v] = val()
		}
	}
	return in
}

func identity(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}
