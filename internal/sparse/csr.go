// Package sparse provides the sparse-matrix substrate for the CG and
// CHOLESKY applications: CSR symmetric positive-definite matrices, a
// seeded synthetic generator (the stand-in for the NAS/SPLASH inputs,
// which are not redistributable), symbolic Cholesky factorization
// (elimination structure), and reference numeric kernels used to verify
// the simulated applications' results.
package sparse

import (
	"math"
	"math/rand"
	"sort"

	"spasm/internal/mem"
)

// CSR is a square sparse matrix in compressed-sparse-row form.
type CSR struct {
	N      int
	RowPtr []int     // len N+1
	Col    []int     // len NNZ, column indices, sorted within each row
	Val    []float64 // len NNZ
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Col) }

// Row returns the column indices and values of row i.
func (m *CSR) Row(i int) ([]int, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Col[lo:hi], m.Val[lo:hi]
}

// At returns element (i, j), zero if not stored.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// MulVec computes y = M x (host-side reference kernel).
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := 0; i < m.N; i++ {
		cols, vals := m.Row(i)
		var s float64
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[i] = s
	}
}

// RandomSPD generates a random symmetric positive-definite matrix of
// order n: a tridiagonal band plus `extra` random symmetric off-diagonal
// pairs per row, made strictly diagonally dominant (hence SPD).  The
// generator is fully determined by seed, standing in for the NAS CG and
// SPLASH TRI input matrices.  The matrix and the scratch that builds it
// are taken from host.
func RandomSPD(n, extra int, seed int64, host *mem.Arena) *CSR {
	if n < 1 {
		panic("sparse: RandomSPD with n < 1")
	}
	rng := rand.New(rand.NewSource(seed))
	// Draw the off-diagonal pairs in order.  A pair stands for both
	// (i, j) and (j, i); when a position is drawn twice the later value
	// wins.
	pairs := n - 1 + n*extra
	ends := host.Ints(2 * pairs)
	pval := host.Floats(pairs)
	np := 0
	put := func(i, j int, v float64) {
		ends[2*np], ends[2*np+1], pval[np] = i, j, v
		np++
	}
	for i := 0; i+1 < n; i++ {
		put(i, i+1, -(0.1 + rng.Float64()))
	}
	for i := 0; i < n; i++ {
		for e := 0; e < extra; e++ {
			j := rng.Intn(n)
			if j != i {
				put(i, j, -(0.05 + 0.5*rng.Float64()))
			}
		}
	}

	// Scatter them into rows, each row its diagonal and then its pairs in
	// the order they were drawn; next[i] ends up where row i ends.
	next := host.Ints(n)
	for _, i := range ends[:2*np] {
		next[i]++
	}
	slots := 0
	for i, deg := range next {
		next[i] = slots
		slots += deg + 1
	}
	col, val := host.Ints(slots), host.Floats(slots)
	for i := range next {
		col[next[i]] = i
		next[i]++
	}
	for k := 0; k < np; k++ {
		i, j := ends[2*k], ends[2*k+1]
		col[next[i]], val[next[i]] = j, pval[k]
		next[i]++
		col[next[j]], val[next[j]] = i, pval[k]
		next[j]++
	}

	// Sort each row by column, keep the last of each repeated column, and
	// price the diagonal from the row's off-diagonal sum, packing the rows
	// to the front as they shrink.
	m := &CSR{N: n, RowPtr: host.Ints(n + 1)}
	w, lo := 0, 0
	for i, hi := range next {
		sortRow(col[lo:hi], val[lo:hi])
		m.RowPtr[i] = w
		var rowSum float64
		diag := 0
		for k := lo; k < hi; k++ {
			if k+1 < hi && col[k+1] == col[k] {
				continue
			}
			col[w], val[w] = col[k], val[k]
			if col[w] == i {
				diag = w
			} else {
				rowSum += math.Abs(val[w])
			}
			w++
		}
		val[diag] = rowSum + 1.0 + rng.Float64()
		lo = hi
	}
	m.RowPtr[n] = w
	m.Col, m.Val = col[:w:w], val[:w:w]
	return m
}

// sortRow sorts one row's entries by column, stably: insertion sort, as a
// row holds a handful.
func sortRow(col []int, val []float64) {
	for k := 1; k < len(col); k++ {
		c, v := col[k], val[k]
		x := k
		for ; x > 0 && col[x-1] > c; x-- {
			col[x], val[x] = col[x-1], val[x-1]
		}
		col[x], val[x] = c, v
	}
}

// Residual returns max_i |b - A x|_i (host-side verification helper),
// leaving A x in ax.
func Residual(a *CSR, x, b, ax []float64) float64 {
	a.MulVec(x, ax)
	var worst float64
	for i := range ax {
		if d := math.Abs(b[i] - ax[i]); d > worst {
			worst = d
		}
	}
	return worst
}
