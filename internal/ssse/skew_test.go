package ssse

import (
	"math"
	"testing"
)

// FuzzSubtreeSkew requires the skew kernel to match math.Pow(1-u, -0.7)
// bit for bit on every hash, with u derived as syntheticNodes derives it.
// The seed corpus holds u = 0, u = 1-2^-53, u = 0.5 and a draw past the
// 1000x cap.
func FuzzSubtreeSkew(f *testing.F) {
	f.Fuzz(func(t *testing.T, h uint64) {
		x := 1 - unitDraw(h)
		got, want := powNeg07(x), math.Pow(x, -0.7)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("h=%#x: powNeg07(%v) = %v (%#x), math.Pow = %v (%#x)",
				h, x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// BenchmarkSubtreeSkew times one skew draw through the kernel and through
// math.Pow on the same hashed inputs.
func BenchmarkSubtreeSkew(b *testing.B) {
	for _, c := range []struct {
		name string
		pow  func(float64) float64
	}{
		{"kernel", powNeg07},
		{"math.Pow", func(x float64) float64 { return math.Pow(x, -0.7) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += c.pow(1 - unitDraw(uint64(i)*0x9E3779B97F4A7C15))
			}
			if sum == 0 {
				b.Fatal("no draws")
			}
		})
	}
}
