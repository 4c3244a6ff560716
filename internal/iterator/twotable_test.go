package iterator

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

// plainSKVI hides every method of the wrapped iterator beyond SKVI, so
// a consumer sees a byte-valued source even when the iterator beneath
// is a FloatSource.
type plainSKVI struct{ SKVI }

// randomMultTables builds a random Aᵀ and B over a few inner rows with
// non-integer values, so products exercise the decimal encoding.
func randomMultTables(rng *rand.Rand) (at, b []skv.Entry) {
	for i := 0; i < 6; i++ {
		inner := fmt.Sprintf("i%d", i)
		for j := 0; j < 5; j++ {
			if rng.Intn(2) == 0 {
				at = append(at, e(inner, "", fmt.Sprintf("a%d", j), 0, float64(1+rng.Intn(1000))/7))
			}
			if rng.Intn(2) == 0 {
				b = append(b, e(inner, "", fmt.Sprintf("b%d", j), 0, float64(1+rng.Intn(1000))/3))
			}
		}
	}
	return at, b
}

func newMult(at, b []skv.Entry, ring semiring.Semiring) *TwoTableIterator {
	env := newFakeEnv()
	env.tables["AT"] = at
	return NewTwoTableIterator(NewSliceIter(b), NewRemoteSourceIterator("AT", env), ring)
}

// TestTwoTableLazyTopMatchesEncodeFloat checks that the bytes Top
// encodes on demand are exactly skv.EncodeFloat of the product, on
// every call.
func TestTwoTableLazyTopMatchesEncodeFloat(t *testing.T) {
	at, b := randomMultTables(rand.New(rand.NewSource(3)))
	tt := newMult(at, b, semiring.PlusTimes)
	if err := tt.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; tt.HasTop(); n++ {
		k, v := tt.TopFloat()
		top := tt.Top()
		if top.K != k {
			t.Fatalf("Top key %v, TopFloat key %v", top.K, k)
		}
		if want := skv.EncodeFloat(v); !bytes.Equal(top.V, want) {
			t.Fatalf("Top().V = %q, want EncodeFloat(%v) = %q", top.V, v, want)
		}
		if again := tt.Top(); !bytes.Equal(again.V, top.V) {
			t.Fatalf("second Top().V = %q, first %q", again.V, top.V)
		}
		if err := tt.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if n == 0 {
		t.Fatal("random tables produced no products")
	}
}

// TestRemoteWriteFoldFloatSourceMatchesBytes checks that folding a
// TwoTableIterator through its float handoff writes cells identical to
// folding the same product stream read as bytes, with and without
// spills.
func TestRemoteWriteFoldFloatSourceMatchesBytes(t *testing.T) {
	for _, ring := range []semiring.Semiring{semiring.PlusTimes, semiring.MinPlus} {
		for _, preAgg := range []int{1 << 20, 200} {
			for seed := int64(0); seed < 10; seed++ {
				at, b := randomMultTables(rand.New(rand.NewSource(seed)))
				fold := func(src SKVI) []skv.Entry {
					env := newFakeEnv()
					w := NewPreAggRemoteWriteIterator(src, "C", 7, preAgg, ring, env)
					if err := w.Seek(skv.FullRange()); err != nil {
						t.Fatal(err)
					}
					return env.writes["C"]
				}
				viaFloats := fold(newMult(at, b, ring))
				viaBytes := fold(plainSKVI{newMult(at, b, ring)})
				if len(viaFloats) == 0 {
					continue
				}
				if len(viaFloats) != len(viaBytes) {
					t.Fatalf("%s preAgg=%d seed=%d: %d cells via floats, %d via bytes", ring.Name, preAgg, seed, len(viaFloats), len(viaBytes))
				}
				for i := range viaFloats {
					f, g := viaFloats[i], viaBytes[i]
					if f.K != g.K || !bytes.Equal(f.V, g.V) {
						t.Fatalf("%s preAgg=%d seed=%d cell %d: floats %v=%q, bytes %v=%q", ring.Name, preAgg, seed, i, f.K, f.V, g.K, g.V)
					}
				}
			}
		}
	}
}

// TestTwoTableMixedFamilyRowsSorted checks that an inner row whose
// entries span several column families — so the raw cross product is
// out of order — still comes out sorted, with every product present.
func TestTwoTableMixedFamilyRowsSorted(t *testing.T) {
	at := []skv.Entry{
		e("i", "deg", "a2", 0, 2),
		e("i", "deg", "a3", 0, 3),
		e("i", "edge", "a1", 0, 5),
		e("i", "edge", "a2", 0, 7),
	}
	b := []skv.Entry{
		e("i", "deg", "b2", 0, 11),
		e("i", "edge", "b1", 0, 13),
		e("i", "edge", "b2", 0, 17),
	}
	tt := newMult(at, b, semiring.PlusTimes)
	if err := tt.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(tt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSortedFunc(got, func(x, y skv.Entry) int { return skv.Compare(x.K, y.K) }) {
		t.Fatalf("mixed-family row output not sorted: %v", keysOf(got))
	}
	if len(got) != len(at)*len(b) {
		t.Fatalf("%d products, want %d", len(got), len(at)*len(b))
	}
	sums := map[string]float64{}
	for _, en := range got {
		v, _ := skv.DecodeFloat(en.V)
		sums[en.K.Row+","+en.K.ColQ] += v
	}
	// a2 appears in both families: (2+7)·(11+17) into (a2,b2).
	if want := 9.0 * 28; sums["a2,b2"] != want {
		t.Fatalf("C[a2,b2] = %v, want %v", sums["a2,b2"], want)
	}
}
