package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Symbolic is the result of symbolic Cholesky factorization of a
// symmetric matrix: the fill-in-complete column structure of the factor
// L, the elimination tree, and the dependency counts that drive the
// dynamically scheduled numeric factorization (the SPLASH CHOLESKY task
// structure).
type Symbolic struct {
	N int
	// Struct[j] lists the row indices of the nonzeros of column j of
	// L, ascending, starting with the diagonal j itself.
	Struct [][]int
	// Parent is the elimination tree: Parent[j] is the first
	// off-diagonal row index in column j (-1 for a root).
	Parent []int
	// Deps[i] counts the columns j < i with L[i][j] != 0: the number
	// of cmod(i, j) updates column i must receive before its cdiv.
	Deps []int
	// ColPtr/NNZ give each column's offset in a packed CSC value
	// array of the factor.
	ColPtr []int
}

// SymbolicFactor computes the fill pattern of the Cholesky factor of a
// (pattern-)symmetric matrix: struct(L_j) = struct(A_{j:n,j}) united with
// struct(L_c) \ {c} for every elimination-tree child c of j.
func SymbolicFactor(a *CSR) *Symbolic {
	n := a.N
	s := &Symbolic{
		N:      n,
		Struct: make([][]int, n),
		Parent: make([]int, n),
		Deps:   make([]int, n),
		ColPtr: make([]int, n+1),
	}
	children := make([][]int, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		// Gather struct(A[j:, j]) — lower triangle of column j,
		// which by symmetry is row j's entries >= j.
		var rows []int
		mark[j] = j
		rows = append(rows, j)
		cols, _ := a.Row(j)
		for _, i := range cols {
			if i > j && mark[i] != j {
				mark[i] = j
				rows = append(rows, i)
			}
		}
		// Union in the children's structures (minus their diagonal).
		for _, c := range children[j] {
			for _, i := range s.Struct[c][1:] {
				if i > j && mark[i] != j {
					mark[i] = j
					rows = append(rows, i)
				}
			}
		}
		sort.Ints(rows)
		s.Struct[j] = rows
		if len(rows) > 1 {
			s.Parent[j] = rows[1]
			children[rows[1]] = append(children[rows[1]], j)
		} else {
			s.Parent[j] = -1
		}
		for _, i := range rows[1:] {
			s.Deps[i]++
		}
		s.ColPtr[j+1] = s.ColPtr[j] + len(rows)
	}
	return s
}

// NNZ returns the number of stored factor entries (including diagonals).
func (s *Symbolic) NNZ() int { return s.ColPtr[s.N] }

// Index returns the packed CSC index of L[i][j], which must be a stored
// entry of column j.
func (s *Symbolic) Index(i, j int) int {
	rows := s.Struct[j]
	k := sort.SearchInts(rows, i)
	if k == len(rows) || rows[k] != i {
		panic(fmt.Sprintf("sparse: L[%d][%d] not in symbolic structure", i, j))
	}
	return s.ColPtr[j] + k
}

// Factorize performs the host-side reference numeric factorization
// (sequential right-looking column Cholesky over the symbolic
// structure).  vals is the packed CSC value array, pre-loaded with A's
// lower triangle (zeros in fill positions); on return it holds L.
func (s *Symbolic) Factorize(vals []float64) error {
	if len(vals) != s.NNZ() {
		return fmt.Errorf("sparse: Factorize with %d values, want %d", len(vals), s.NNZ())
	}
	for j := 0; j < s.N; j++ {
		base := s.ColPtr[j]
		d := vals[base]
		if d <= 0 {
			return fmt.Errorf("sparse: non-positive pivot %g at column %d", d, j)
		}
		d = math.Sqrt(d)
		vals[base] = d
		rows := s.Struct[j]
		for k := 1; k < len(rows); k++ {
			vals[base+k] /= d
		}
		// cmod(i, j) for every i in struct(j): subtract the outer
		// product contribution from the remaining columns.
		for k := 1; k < len(rows); k++ {
			i := rows[k]
			lij := vals[base+k]
			for k2 := k; k2 < len(rows); k2++ {
				r := rows[k2]
				vals[s.Index(r, i)] -= lij * vals[base+k2]
			}
		}
	}
	return nil
}

// LoadLower fills a packed CSC value array with the lower triangle of a
// (value-)symmetric matrix, zeros in fill positions.
func (s *Symbolic) LoadLower(a *CSR) []float64 {
	vals := make([]float64, s.NNZ())
	for j := 0; j < s.N; j++ {
		for k, i := range s.Struct[j] {
			vals[s.ColPtr[j]+k] = a.At(i, j)
		}
	}
	return vals
}

// CheckFactor verifies that vals (a factor over s's structure) satisfies
// L Lᵀ = A within tol at every position of the structure — fill positions
// included, where A is zero — and that A's lower triangle lies inside it.
// It returns the worst absolute deviation seen, up to and including the
// first one beyond tol.
func (s *Symbolic) CheckFactor(a *CSR, vals []float64, tol float64) (worst float64, err error) {
	// Transpose the packed columns into packed rows.  Row i holds
	// Deps[i] entries left of its diagonal, and walking the columns in
	// order fills every row in ascending column order, so (L Lᵀ)[i][j] is
	// a merge-join of rows i and j, summed in one fixed order.
	n := s.N
	rowPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + s.Deps[i] + 1
	}
	col := make([]int, rowPtr[n])
	val := make([]float64, rowPtr[n])
	next := append([]int(nil), rowPtr[:n]...)
	for j := 0; j < n; j++ {
		for k, i := range s.Struct[j] {
			col[next[i]], val[next[i]] = j, vals[s.ColPtr[j]+k]
			next[i]++
		}
	}
	dot := func(i, j int) float64 {
		x, xe := rowPtr[i], rowPtr[i+1]
		y, ye := rowPtr[j], rowPtr[j+1]
		var sum float64
		for x < xe && y < ye {
			switch cx, cy := col[x], col[y]; {
			case cx < cy:
				x++
			case cx > cy:
				y++
			default:
				sum += val[x] * val[y]
				x++
				y++
			}
		}
		return sum
	}
	for i := 0; i < n; i++ {
		// Row i of L ends at the diagonal, so walking it beside row i
		// of A meets every A[i][j] with j <= i or steps over it.
		acols, avals := a.Row(i)
		y := 0
		for x := rowPtr[i]; x < rowPtr[i+1]; x++ {
			j := col[x]
			var aij float64
			if y < len(acols) && acols[y] <= j {
				if acols[y] < j {
					return worst, fmt.Errorf("sparse: A[%d][%d] lies outside the factor's structure", i, acols[y])
				}
				aij = avals[y]
				y++
			}
			d := math.Abs(dot(i, j) - aij)
			if d > worst {
				worst = d
			}
			if d > tol {
				return worst, fmt.Errorf("sparse: |(LLᵀ - A)[%d][%d]| = %g > %g", i, j, d, tol)
			}
		}
	}
	return worst, nil
}
