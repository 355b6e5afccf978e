package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandomSPDStructure(t *testing.T) {
	m := RandomSPD(50, 3, 1)
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
	a := RandomSPD(30, 2, 42)
	b := RandomSPD(30, 2, 42)
	if a.NNZ() != b.NNZ() {
		t.Fatal("nondeterministic generator")
	}
	for k := range a.Val {
		if a.Val[k] != b.Val[k] || a.Col[k] != b.Col[k] {
			t.Fatal("nondeterministic generator values")
		}
	}
	c := RandomSPD(30, 2, 43)
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
	m := RandomSPD(10, 1, 7)
	m.Col[0], m.Col[1] = m.Col[1], m.Col[0] // break sort order
	if err := m.Validate(); err == nil {
		t.Error("unsorted row accepted")
	}
}

func TestSymbolicTridiagonal(t *testing.T) {
	// Tridiagonal: no fill; struct(j) = {j, j+1}; parent chain.
	m := RandomSPD(10, 0, 3)
	s := SymbolicFactor(m)
	for j := 0; j < 9; j++ {
		if len(s.Struct[j]) != 2 || s.Struct[j][1] != j+1 {
			t.Fatalf("tridiagonal fill at column %d: %v", j, s.Struct[j])
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
	m := RandomSPD(40, 3, 11)
	s := SymbolicFactor(m)
	for i := 0; i < m.N; i++ {
		cols, _ := m.Row(i)
		for _, j := range cols {
			if j > i {
				continue
			}
			// A[i][j] nonzero with j <= i must appear in struct(j).
			found := false
			for _, r := range s.Struct[j] {
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
		m := RandomSPD(n, 2, int64(n))
		s := SymbolicFactor(m)
		vals := s.LoadLower(m)
		if err := s.Factorize(vals); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CheckFactor(m, vals, 1e-8); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestFactorizeRejectsWrongLength(t *testing.T) {
	m := RandomSPD(10, 1, 5)
	s := SymbolicFactor(m)
	if err := s.Factorize(make([]float64, 3)); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestIndexPanicsOnNonEntry(t *testing.T) {
	m := RandomSPD(10, 0, 5) // tridiagonal
	s := SymbolicFactor(m)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Index(9, 0) // L[9][0] is not in a tridiagonal structure
}

func TestResidualHelper(t *testing.T) {
	m := RandomSPD(5, 0, 9)
	x := []float64{1, 2, 3, 4, 5}
	b := make([]float64, 5)
	m.MulVec(x, b)
	if r := Residual(m, x, b); r != 0 {
		t.Errorf("residual of exact solution = %g", r)
	}
	b[2] += 1
	if r := Residual(m, x, b); r != 1 {
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
		m := RandomSPD(n, extra, seed)
		s := SymbolicFactor(m)
		sumDeps := 0
		for _, d := range s.Deps {
			sumDeps += d
		}
		if sumDeps != s.NNZ()-n {
			return false
		}
		vals := s.LoadLower(m)
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
	m := RandomSPD(40, 3, 11)
	s := SymbolicFactor(m)
	factor := s.LoadLower(m)
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
		for k, i := range s.Struct[j] {
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
	band := SymbolicFactor(RandomSPD(40, 0, 11))
	if _, err := band.CheckFactor(m, make([]float64, band.NNZ()), math.Inf(1)); err == nil {
		t.Error("matrix entry outside the structure accepted")
	}
}
