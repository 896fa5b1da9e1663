// The pinned canonical-identity corpus. This file lives in the external
// test package because it draws its instances from the workload
// families (workload imports qon).
package qon_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strconv"
	"testing"

	"approxqo/internal/qon"
	"approxqo/internal/workload"
)

// Canonical identity is a wire format: cache keys (replica.KeySchema
// "s2") embed the fingerprint, replicas exchange entries by it, and a
// stored report lives in the canonical label space the permutation
// defines. A change to either — even a correct one — orphans every
// cached entry and splits a mixed-version cluster. The digest below
// pins both, bit for bit, over a corpus of every workload family.
const (
	corpusCases  = 2808
	corpusDigest = "55d36ce4d66dc877cdbf9517748235e3598459fa32284199f2d3af54e2298b7e"
)

// TestFingerprintCorpusStable hashes the fingerprint and canonical
// permutation of every corpus case into one SHA-256 and compares it
// with the pinned digest.
func TestFingerprintCorpusStable(t *testing.T) {
	h := sha256.New()
	cases := 0
	forEachCorpusInstance(t, func(_ workload.Spec, rels []*qon.Instance) {
		for _, rel := range rels {
			fp, pi := qon.CanonicalID(rel)
			h.Write([]byte(fp))
			for _, p := range pi {
				h.Write([]byte{' '})
				h.Write([]byte(strconv.Itoa(p)))
			}
			h.Write([]byte{'\n'})
			cases++
		}
	})
	got := hex.EncodeToString(h.Sum(nil))
	if cases != corpusCases || got != corpusDigest {
		t.Fatalf("canonical identity changed: %d cases, digest %s; pinned %d cases, digest %s",
			cases, got, corpusCases, corpusDigest)
	}
}

// forEachCorpusInstance walks the pinned corpus: every workload family
// × n 2–16 × seeds 0–5 (family/n pairs the generator refuses are
// skipped), calling fn with the spec and three seeded relabelings of
// its instance, in a fixed order.
func forEachCorpusInstance(t *testing.T, fn func(spec workload.Spec, rels []*qon.Instance)) {
	t.Helper()
	for _, fam := range workload.Families() {
		for n := 2; n <= 16; n++ {
			for seed := int64(0); seed < 6; seed++ {
				spec := workload.Spec{Shape: string(fam), N: n, Seed: seed}
				in, err := spec.Generate()
				if err != nil {
					continue
				}
				rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
				rels := make([]*qon.Instance, 3)
				for rep := range rels {
					rels[rep] = qon.Relabel(in, rng.Perm(n))
				}
				fn(spec, rels)
			}
		}
	}
}
