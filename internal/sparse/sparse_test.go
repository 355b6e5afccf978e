package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spasm/internal/mem"
)

// randomSPD is RandomSPD on a fresh arena.
func randomSPD(n, extra int, seed int64) *CSR {
	return RandomSPD(n, extra, seed, new(mem.Arena))
}

// symbolicFactor is SymbolicFactor on a fresh arena.
func symbolicFactor(a *CSR) *Symbolic { return SymbolicFactor(a, new(mem.Arena)) }

// symbolicRef is what symbolicByChildren computes.
type symbolicRef struct {
	N                    int
	Struct               [][]int
	Parent, Deps, ColPtr []int
}

// symbolicByChildren is SymbolicFactor as first written, column by
// column: struct(L_j) = struct(A_{j:n,j}) united with struct(L_c) \ {c}
// for every elimination-tree child c of j.  It is the reference the
// row-subtree version must reproduce.
func symbolicByChildren(a *CSR) *symbolicRef {
	n := a.N
	s := &symbolicRef{
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

// TestSymbolicMatchesChildren: the row-subtree factorization gives the
// reference's columns, tree, counts and offsets, over many matrices on
// one arena that every call rewinds.
func TestSymbolicMatchesChildren(t *testing.T) {
	host := new(mem.Arena)
	same := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if a[k] != b[k] {
				return false
			}
		}
		return true
	}
	for _, n := range []int{1, 2, 5, 48, 220, 13, 100} {
		for extra := 0; extra <= 4; extra++ {
			for seed := int64(1); seed <= 4; seed++ {
				host.Reset()
				m := RandomSPD(n, extra, seed, host)
				got, want := SymbolicFactor(m, host), symbolicByChildren(m)
				if !same(got.Parent, want.Parent) || !same(got.Deps, want.Deps) || !same(got.ColPtr, want.ColPtr) {
					t.Fatalf("n=%d extra=%d seed=%d: tree, counts or offsets differ", n, extra, seed)
				}
				for j := 0; j < n; j++ {
					if !same(got.Col(j), want.Struct[j]) {
						t.Fatalf("n=%d extra=%d seed=%d: column %d is %v, want %v",
							n, extra, seed, j, got.Col(j), want.Struct[j])
					}
				}
			}
		}
	}
}

// loadLower returns A's lower triangle packed over s's structure.
func loadLower(s *Symbolic, a *CSR) []float64 {
	vals := make([]float64, s.NNZ())
	s.LoadLower(a, vals)
	return vals
}

// IsSymmetric reports whether the stored pattern and values are
// symmetric.
func (m *CSR) IsSymmetric() bool {
	for i := 0; i < m.N; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if m.At(j, i) != vals[k] {
				return false
			}
		}
	}
	return true
}

// Validate checks structural consistency: monotone RowPtr, in-range and
// sorted columns.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.N+1 {
		return fmt.Errorf("sparse: RowPtr length %d for N=%d", len(m.RowPtr), m.N)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.N] != len(m.Col) || len(m.Col) != len(m.Val) {
		return fmt.Errorf("sparse: inconsistent RowPtr/Col/Val lengths")
	}
	for i := 0; i < m.N; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		cols, _ := m.Row(i)
		for k, j := range cols {
			if j < 0 || j >= m.N {
				return fmt.Errorf("sparse: row %d has column %d out of range", i, j)
			}
			if k > 0 && cols[k-1] >= j {
				return fmt.Errorf("sparse: row %d columns not strictly sorted", i)
			}
		}
	}
	return nil
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
		rows := s.Col(j)
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

// randomSPDMaps is RandomSPD as first written, over one map per row: the
// reference the map-free generator must reproduce bit for bit.
func randomSPDMaps(n, extra int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	offDiag := make([]map[int]float64, n)
	for i := range offDiag {
		offDiag[i] = make(map[int]float64)
	}
	put := func(i, j int, v float64) {
		if i == j {
			return
		}
		offDiag[i][j] = v
		offDiag[j][i] = v
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
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		cols := make([]int, 0, len(offDiag[i])+1)
		for j := range offDiag[i] {
			cols = append(cols, j)
		}
		cols = append(cols, i)
		sort.Ints(cols)
		var rowSum float64
		for _, j := range cols {
			if j != i {
				rowSum += math.Abs(offDiag[i][j])
			}
		}
		for _, j := range cols {
			m.Col = append(m.Col, j)
			if j == i {
				m.Val = append(m.Val, rowSum+1.0+rng.Float64())
			} else {
				m.Val = append(m.Val, offDiag[i][j])
			}
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
}

// TestRandomSPDMatchesMaps: the generator gives the reference's CSR bit
// for bit over many sizes, densities and seeds, on one arena that every
// call rewinds, so a value left over from a larger matrix would show.
func TestRandomSPDMatchesMaps(t *testing.T) {
	host := new(mem.Arena)
	same := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if a[k] != b[k] {
				return false
			}
		}
		return true
	}
	for _, n := range []int{1, 2, 3, 7, 64, 200, 31, 512, 5} {
		for extra := 0; extra <= 6; extra++ {
			for seed := int64(1); seed <= 6; seed++ {
				host.Reset()
				got, want := RandomSPD(n, extra, seed, host), randomSPDMaps(n, extra, seed)
				if got.N != want.N || !same(got.RowPtr, want.RowPtr) || !same(got.Col, want.Col) {
					t.Fatalf("n=%d extra=%d seed=%d: structure differs", n, extra, seed)
				}
				for k := range want.Val {
					if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
						t.Fatalf("n=%d extra=%d seed=%d: value %d is %v, want %v",
							n, extra, seed, k, got.Val[k], want.Val[k])
					}
				}
			}
		}
	}
}

func TestRandomSPDStructure(t *testing.T) {
	m := randomSPD(50, 3, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric() {
		t.Error("matrix not symmetric")
	}
	// Diagonal dominance (implies SPD for symmetric matrices).
	for i := 0; i < m.N; i++ {
		cols, vals := m.Row(i)
		var diag, off float64
		for k, j := range cols {
			if j == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not diagonally dominant: %g <= %g", i, diag, off)
		}
	}
}

func TestRandomSPDDeterministic(t *testing.T) {
	a := randomSPD(30, 2, 42)
	b := randomSPD(30, 2, 42)
	if a.NNZ() != b.NNZ() {
		t.Fatal("nondeterministic generator")
	}
	for k := range a.Val {
		if a.Val[k] != b.Val[k] || a.Col[k] != b.Col[k] {
			t.Fatal("nondeterministic generator values")
		}
	}
	c := randomSPD(30, 2, 43)
	same := c.NNZ() == a.NNZ()
	if same {
		for k := range a.Val {
			if a.Val[k] != c.Val[k] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds gave identical matrices")
	}
}

func TestMulVecAndAt(t *testing.T) {
	// 2x2: [[2, -1], [-1, 2]]
	m := &CSR{N: 2, RowPtr: []int{0, 2, 4}, Col: []int{0, 1, 0, 1}, Val: []float64{2, -1, -1, 2}}
	if m.At(0, 1) != -1 || m.At(1, 1) != 2 || m.At(0, 0) != 2 {
		t.Error("At wrong")
	}
	y := make([]float64, 2)
	m.MulVec([]float64{1, 2}, y)
	if y[0] != 0 || y[1] != 3 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := randomSPD(10, 1, 7)
	m.Col[0], m.Col[1] = m.Col[1], m.Col[0] // break sort order
	if err := m.Validate(); err == nil {
		t.Error("unsorted row accepted")
	}
}

func TestSymbolicTridiagonal(t *testing.T) {
	// Tridiagonal: no fill; struct(j) = {j, j+1}; parent chain.
	m := randomSPD(10, 0, 3)
	s := symbolicFactor(m)
	for j := 0; j < 9; j++ {
		if len(s.Col(j)) != 2 || s.Col(j)[1] != j+1 {
			t.Fatalf("tridiagonal fill at column %d: %v", j, s.Col(j))
		}
		if s.Parent[j] != j+1 {
			t.Fatalf("parent[%d] = %d", j, s.Parent[j])
		}
	}
	if s.Parent[9] != -1 {
		t.Error("last column should be a root")
	}
	if s.Deps[0] != 0 || s.Deps[5] != 1 {
		t.Errorf("deps = %v", s.Deps)
	}
}

func TestSymbolicContainsMatrixPattern(t *testing.T) {
	m := randomSPD(40, 3, 11)
	s := symbolicFactor(m)
	for i := 0; i < m.N; i++ {
		cols, _ := m.Row(i)
		for _, j := range cols {
			if j > i {
				continue
			}
			// A[i][j] nonzero with j <= i must appear in struct(j).
			found := false
			for _, r := range s.Col(j) {
				if r == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("A[%d][%d] missing from factor structure", i, j)
			}
		}
	}
}

func TestFactorizeReproducesMatrix(t *testing.T) {
	for _, n := range []int{5, 20, 60} {
		m := randomSPD(n, 2, int64(n))
		s := symbolicFactor(m)
		vals := loadLower(s, m)
		if err := s.Factorize(vals); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CheckFactor(m, vals, 1e-8); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestFactorizeRejectsWrongLength(t *testing.T) {
	m := randomSPD(10, 1, 5)
	s := symbolicFactor(m)
	if err := s.Factorize(make([]float64, 3)); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestIndexPanicsOnNonEntry(t *testing.T) {
	m := randomSPD(10, 0, 5) // tridiagonal
	s := symbolicFactor(m)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Index(9, 0) // L[9][0] is not in a tridiagonal structure
}

func TestResidualHelper(t *testing.T) {
	m := randomSPD(5, 0, 9)
	x := []float64{1, 2, 3, 4, 5}
	b := make([]float64, 5)
	m.MulVec(x, b)
	if r := Residual(m, x, b, make([]float64, 5)); r != 0 {
		t.Errorf("residual of exact solution = %g", r)
	}
	b[2] += 1
	if r := Residual(m, x, b, make([]float64, 5)); r != 1 {
		t.Errorf("perturbed residual = %g, want 1", r)
	}
}

// Property: for random SPD matrices the numeric factorization always
// succeeds and reproduces A within tolerance; deps always sum to the
// strictly-sub-diagonal nonzero count of L.
func TestFactorizationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		extra := rng.Intn(4)
		m := randomSPD(n, extra, seed)
		s := symbolicFactor(m)
		sumDeps := 0
		for _, d := range s.Deps {
			sumDeps += d
		}
		if sumDeps != s.NNZ()-n {
			return false
		}
		vals := loadLower(s, m)
		if err := s.Factorize(vals); err != nil {
			return false
		}
		_, err := s.CheckFactor(m, vals, 1e-6)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// CheckFactor must reject a wrong value anywhere in the structure — at a
// position A stores and at a fill position, where A is zero — and a
// matrix entry the structure does not cover, and must sum in a fixed
// order: two calls return the same bits.
func TestCheckFactorRejectsAndRepeats(t *testing.T) {
	m := randomSPD(40, 3, 11)
	s := symbolicFactor(m)
	factor := loadLower(s, m)
	if err := s.Factorize(factor); err != nil {
		t.Fatal(err)
	}
	worst, err := s.CheckFactor(m, factor, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if again, _ := s.CheckFactor(m, factor, 1e-8); math.Float64bits(again) != math.Float64bits(worst) {
			t.Fatalf("worst deviation %x then %x", math.Float64bits(worst), math.Float64bits(again))
		}
	}

	stored, fill := -1, -1 // packed indices of one off-diagonal entry of each kind
	for j := 0; j < s.N; j++ {
		for k, i := range s.Col(j) {
			switch {
			case i == j:
			case m.At(i, j) != 0:
				stored = s.ColPtr[j] + k
			default:
				fill = s.ColPtr[j] + k
			}
		}
	}
	if stored < 0 || fill < 0 {
		t.Fatal("matrix has no stored off-diagonal or no fill entry")
	}
	for name, at := range map[string]int{"stored": stored, "fill": fill, "diagonal": 0} {
		bad := append([]float64(nil), factor...)
		bad[at] += 1e-3
		if _, err := s.CheckFactor(m, bad, 1e-8); err == nil {
			t.Errorf("perturbed %s entry accepted", name)
		}
	}

	// A structure computed for a sparser matrix does not cover m, which
	// no tolerance excuses.
	band := symbolicFactor(randomSPD(40, 0, 11))
	if _, err := band.CheckFactor(m, make([]float64, band.NNZ()), math.Inf(1)); err == nil {
		t.Error("matrix entry outside the structure accepted")
	}
}
