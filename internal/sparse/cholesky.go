package sparse

import (
	"fmt"
	"math"
	"sort"

	"spasm/internal/mem"
)

// Symbolic is the result of symbolic Cholesky factorization of a
// symmetric matrix: the fill-in-complete column structure of the factor
// L, the elimination tree, and the dependency counts that drive the
// dynamically scheduled numeric factorization (the SPLASH CHOLESKY task
// structure).
type Symbolic struct {
	N int
	// Rows lists the row indices of the nonzeros of each column of L,
	// column j's at ColPtr[j]:ColPtr[j+1] (see Col): ascending, starting
	// with the diagonal j itself.
	Rows []int
	// Parent is the elimination tree: Parent[j] is the first
	// off-diagonal row index in column j (-1 for a root).
	Parent []int
	// Deps[i] counts the columns j < i with L[i][j] != 0: the number
	// of cmod(i, j) updates column i must receive before its cdiv.
	Deps []int
	// ColPtr/NNZ give each column's offset in a packed CSC value
	// array of the factor.
	ColPtr []int

	// The factor by rows, for CheckFactor: row i's columns, ascending,
	// at rowPtr[i]:rowPtr[i+1] of rowCol; packed entry k lands at at[k];
	// rowVal is where CheckFactor lays the values out.
	rowPtr, rowCol, at []int
	rowVal             []float64
}

// SymbolicFactor computes the fill pattern of the Cholesky factor of a
// (pattern-)symmetric matrix by row subtrees: L[i][j] != 0 for j < i
// exactly when j lies on the elimination-tree path from some k with
// A[i][k] != 0, k < i, up to i.  Its arrays, and the scratch CheckFactor
// needs, are taken from host.
func SymbolicFactor(a *CSR, host *mem.Arena) *Symbolic {
	n := a.N
	s := &Symbolic{N: n, Parent: host.Ints(n), Deps: host.Ints(n), ColPtr: host.Ints(n + 1)}
	// The elimination tree, by Liu's algorithm: anc short-cuts each node
	// to the highest ancestor found so far.
	anc, mark := host.Ints(n), host.Ints(n)
	for i := 0; i < n; i++ {
		s.Parent[i], anc[i] = -1, -1
		cols, _ := a.Row(i)
		for _, k := range cols {
			if k >= i {
				break
			}
			r := k
			for anc[r] != -1 && anc[r] != i {
				r, anc[r] = anc[r], i
			}
			if anc[r] == -1 {
				anc[r], s.Parent[r] = i, i
			}
		}
	}
	// Count, then fill, each row's off-diagonal columns, walking up from
	// each k to the first node already marked with the row.  The fill
	// meets the rows of a column in ascending order; anc is its cursor.
	for pass := 0; pass < 2; pass++ {
		for j := range mark {
			mark[j] = -1
		}
		for i := 0; i < n; i++ {
			mark[i] = i
			cols, _ := a.Row(i)
			for _, k := range cols {
				if k >= i {
					break
				}
				for j := k; mark[j] != i; j = s.Parent[j] {
					mark[j] = i
					if pass == 0 {
						s.Deps[i]++
						s.ColPtr[j+1]++
					} else {
						s.Rows[anc[j]] = i
						anc[j]++
					}
				}
			}
		}
		if pass == 0 {
			for j := 0; j < n; j++ {
				s.ColPtr[j+1] += s.ColPtr[j] + 1
			}
			s.Rows = host.Ints(s.NNZ())
			for j := 0; j < n; j++ {
				s.Rows[s.ColPtr[j]] = j
				anc[j] = s.ColPtr[j] + 1
			}
		}
	}

	// Lay the factor out by rows too: walking the columns in order fills
	// every row in ascending column order.  anc is the row cursor now.
	s.rowPtr = host.Ints(n + 1)
	for i := 0; i < n; i++ {
		s.rowPtr[i+1] = s.rowPtr[i] + s.Deps[i] + 1
		anc[i] = s.rowPtr[i]
	}
	s.rowCol, s.at, s.rowVal = host.Ints(s.NNZ()), host.Ints(s.NNZ()), host.Floats(s.NNZ())
	for j := 0; j < n; j++ {
		for k, i := range s.Col(j) {
			s.rowCol[anc[i]], s.at[s.ColPtr[j]+k] = j, anc[i]
			anc[i]++
		}
	}
	return s
}

// Col returns the row indices of column j of L, ascending, starting with
// the diagonal j.
func (s *Symbolic) Col(j int) []int { return s.Rows[s.ColPtr[j]:s.ColPtr[j+1]] }

// NNZ returns the number of stored factor entries (including diagonals).
func (s *Symbolic) NNZ() int { return s.ColPtr[s.N] }

// Index returns the packed CSC index of L[i][j], which must be a stored
// entry of column j.
func (s *Symbolic) Index(i, j int) int {
	rows := s.Col(j)
	k := sort.SearchInts(rows, i)
	if k == len(rows) || rows[k] != i {
		panic(fmt.Sprintf("sparse: L[%d][%d] not in symbolic structure", i, j))
	}
	return s.ColPtr[j] + k
}

// LoadLower fills vals, a packed CSC value array of NNZ entries, with the
// lower triangle of a (value-)symmetric matrix, zeros in fill positions.
func (s *Symbolic) LoadLower(a *CSR, vals []float64) {
	for j := 0; j < s.N; j++ {
		for k, i := range s.Col(j) {
			vals[s.ColPtr[j]+k] = a.At(i, j)
		}
	}
}

// CheckFactor verifies that vals (a factor over s's structure) satisfies
// L Lᵀ = A within tol at every position of the structure — fill positions
// included, where A is zero — and that A's lower triangle lies inside it.
// It returns the worst absolute deviation seen, up to and including the
// first one beyond tol.
func (s *Symbolic) CheckFactor(a *CSR, vals []float64, tol float64) (worst float64, err error) {
	// Lay the values out by rows, each in ascending column order, so
	// (L Lᵀ)[i][j] is a merge-join of rows i and j, summed in one fixed
	// order.
	n := s.N
	rowPtr, col, val := s.rowPtr, s.rowCol, s.rowVal
	for k, v := range vals {
		val[s.at[k]] = v
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
