package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}

// fft returns the forward transform of x in a new slice.
func fft(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	FFT(out, x)
	return out
}

// DFT is the O(n²) direct transform, the independent oracle FFT is
// tested against.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := randomSignal(n, int64(n))
		if err := MaxErr(fft(x), DFT(x)); err > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %g", n, err)
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	x := randomSignal(1024, 7)
	y := fft(x)
	InPlace(y, true)
	for i := range y {
		y[i] /= complex(float64(len(y)), 0)
	}
	if err := MaxErr(x, y); err > 1e-10 {
		t.Errorf("round-trip error %g", err)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	for k, v := range fft(x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTConstant(t *testing.T) {
	// FFT of a constant is an impulse at bin 0 of magnitude n.
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	y := fft(x)
	if cmplx.Abs(y[0]-complex(float64(n), 0)) > 1e-12 {
		t.Errorf("bin 0 = %v", y[0])
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(y[k]) > 1e-10 {
			t.Errorf("bin %d = %v, want 0", k, y[k])
		}
	}
}

func TestInPlaceDoesNotAllocateNewSlice(t *testing.T) {
	x := randomSignal(8, 3)
	orig := x
	InPlace(x, false)
	if &x[0] != &orig[0] {
		t.Error("InPlace moved the slice")
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	for _, n := range []int{0, 3, 6, 12} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d accepted", n)
				}
			}()
			InPlace(make([]complex128, n), false)
		}()
	}
}

func TestTwiddleProperties(t *testing.T) {
	if cmplx.Abs(Twiddle(8, 0, 5)-1) > 1e-15 {
		t.Error("ω^0 != 1")
	}
	// ω_n^(n) = 1
	if cmplx.Abs(Twiddle(8, 4, 2)-1) > 1e-12 {
		t.Error("ω_8^8 != 1")
	}
	// ω_4^1 = -i
	if cmplx.Abs(Twiddle(4, 1, 1)-complex(0, -1)) > 1e-12 {
		t.Error("ω_4^1 != -i")
	}
}

// Property: Parseval's theorem — energy is preserved up to the factor n.
func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 128
		x := randomSignal(n, seed)
		y := fft(x)
		var ex, ey float64
		for i := range x {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		}
		return math.Abs(ey-float64(n)*ex) < 1e-6*ey
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: linearity of the transform.
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 64
		a := randomSignal(n, seed)
		b := randomSignal(n, seed+1)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + 2*b[i]
		}
		fa, fb, fs := fft(a), fft(b), fft(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+2*fb[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
