package pattern_test

import (
	"math/rand"
	"testing"

	"approxmatch/internal/datagen"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// BenchmarkCanonical times the result caches' admission pass over RDT-1's
// prototypes, each submitted under a random vertex permutation, edge order
// and endpoint order — what a warm /match pays before its cache lookup.
func BenchmarkCanonical(b *testing.B) {
	set, err := prototype.Generate(datagen.RDT1(), datagen.RDT1EditDistance)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var pool []*pattern.Template
	for _, p := range set.Protos {
		pool = append(pool, pattern.PermuteTemplate(p.Template, rng.Perm(p.Template.NumVertices()), rng))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := pattern.Canonical(pool[i%len(pool)]); !ok {
			b.Fatal("RDT-1 prototype over the admission cap")
		}
	}
}
