// Package fourier provides the host-side complex FFT kernels the
// simulated FFT application computes with and verifies against.  The
// simulated application issues the *reference pattern* of a distributed
// transpose-based FFT; this package supplies the numerics so the program
// computes a real answer that tests can check (execution-driven
// simulation with real values, as SPASM ran real application code).
package fourier

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// InPlace computes the in-place radix-2 decimation-in-time FFT of x,
// whose length must be a power of two.  If inverse is true the inverse
// transform (unscaled) is computed; divide by len(x) to invert exactly.
func InPlace(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fourier: length %d not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := cmplx.Exp(complex(0, sign*math.Pi/float64(half)))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= step
			}
		}
	}
}

// FFT writes the forward transform of x into dst, which must be as long,
// leaving x unmodified.
func FFT(dst, x []complex128) {
	if len(dst) != len(x) {
		panic("fourier: FFT length mismatch")
	}
	copy(dst, x)
	InPlace(dst, false)
}

// Twiddle returns ω_n^(j*k) = exp(-2πi·j·k/n), the six-step FFT's
// inter-phase factor.
func Twiddle(n, j, k int) complex128 {
	angle := -2 * math.Pi * float64(j) * float64(k) / float64(n)
	return cmplx.Exp(complex(0, angle))
}

// MaxErr returns the largest magnitude difference between a and b.
func MaxErr(a, b []complex128) float64 {
	if len(a) != len(b) {
		panic("fourier: MaxErr length mismatch")
	}
	var worst float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}
