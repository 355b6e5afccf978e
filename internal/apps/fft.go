package apps

import (
	"fmt"
	"math/bits"

	"spasm/internal/app"
	"spasm/internal/fourier"
	"spasm/internal/mem"
)

// FFT is the classic n-point complex FFT in its six-step (transpose)
// formulation, the structure that gives the communication phase the
// paper describes: "a processor reads consecutive data items from an
// array", so the 32-byte cache block's four 8-byte items are fetched in
// one miss on the cached machines but cost four network round trips on
// the cache-less LogP machine (paper Figure 1's ~4x latency gap).
//
// Decomposing n = R*C with x[j] = x[j1*C + j2]:
//
//	phase 1: gather-transpose x into W[j2][j1] (remote consecutive reads)
//	phase 2: R-point FFTs over j1 for each local row j2, then twiddle
//	phase 3: gather-transpose W into V[k1][j2] (remote consecutive reads)
//	phase 4: C-point FFTs over j2 for each local row k1
//
// yielding X[k2*R + k1] = V[k1][k2].  Rows are Blocked, so the FFT
// compute phases are entirely local; only the transposes communicate.
type FFT struct {
	N    int // total points, a power of two with R >= P and C >= P
	R, C int
	Seed int64

	// Shared arrays (8-byte elements: 4 per cache block).
	x *mem.Array
	w *mem.Array
	v *mem.Array

	bars []*app.Barrier

	// Host-side values.
	input []complex128
	xv    []complex128 // x values
	wv    []complex128 // W values
	vv    []complex128 // V values

	// Check's scratch: the reference transform and the result reordered.
	want, got []complex128
}

// NewFFT returns an FFT instance at the given scale.
func NewFFT(scale Scale, seed int64) app.Program {
	return &FFT{N: fftPoints(scale), Seed: seed}
}

// fftPoints is FFT's N at each scale.
func fftPoints(scale Scale) int {
	switch scale {
	case Tiny:
		return 1 << 8 // 256 points: R=C=16
	case Small:
		return 1 << 12 // 4096 points: R=C=64
	}
	return 1 << 14 // 16384 points: R=C=128
}

// fftRows is R, the row count of the R*C split of n points (R <= C).
func fftRows(n int) int { return 1 << (bits.TrailingZeros(uint(n)) / 2) }

// MaxP reports the most processors the named workload runs on at scale,
// or 0 when only the machine limits it.  FFT does: each processor needs
// at least one of the R = √N rows.
func MaxP(name string, scale Scale) int {
	if name != "fft" {
		return 0
	}
	return fftRows(fftPoints(scale))
}

func init() {
	register("fft", NewFFT)
}

// Name implements app.Program.
func (f *FFT) Name() string { return "fft" }

// Setup splits N into R*C, allocates the three matrices and the phase
// barriers, and generates the input signal.
func (f *FFT) Setup(c *app.Ctx) {
	f.R = fftRows(f.N)
	f.C = f.N / f.R
	if f.R < c.P || f.C < c.P {
		panic(fmt.Sprintf("fft: N=%d too small for P=%d (R=%d, C=%d)", f.N, c.P, f.R, f.C))
	}
	f.x = c.Space.Alloc("fft.x", f.N, 8, mem.Blocked)
	f.w = c.Space.Alloc("fft.w", f.N, 8, mem.Blocked)
	f.v = c.Space.Alloc("fft.v", f.N, 8, mem.Blocked)
	for i := 0; i < 4; i++ {
		f.bars = append(f.bars, c.NewBarrier(fmt.Sprintf("fft.bar%d", i), c.P, i%c.P))
	}
	f.input = c.Host.Complexes(f.N)
	rng := newRng(f.Seed)
	defer putRng(rng)
	for i := range f.input {
		f.input[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	f.xv = c.Host.Complexes(f.N)
	copy(f.xv, f.input)
	f.wv = c.Host.Complexes(f.N)
	f.vv = c.Host.Complexes(f.N)
	f.want = c.Host.Complexes(f.N)
	f.got = c.Host.Complexes(f.N)
}

// Body implements app.Program.
func (f *FFT) Body(p *app.Proc) {
	P := p.Ctx.P
	R, C, n := f.R, f.C, f.N

	// Phase 1: transpose x (R x C) into W (C x R).  This processor
	// owns W rows j2 in [lo2, hi2): for every source row j1 it reads
	// the consecutive slice x[j1*C + lo2 : j1*C + hi2] — the remote
	// consecutive-item reads of the paper's communication phase — and
	// writes its own (local) W column strided.
	p.Phase("transpose-1")
	lo2, hi2 := share(C, P, p.ID)
	for j1 := 0; j1 < R; j1++ {
		p.ReadRange(f.x, j1*C+lo2, j1*C+hi2)
		for j2 := lo2; j2 < hi2; j2++ {
			f.wv[j2*R+j1] = f.xv[j1*C+j2]
			p.WriteElem(f.w, j2*R+j1)
		}
		p.Compute(int64(hi2-lo2) * LoopCycles)
	}
	f.bars[0].Arrive(p)

	// Phase 2: R-point FFT of each owned W row (over j1), then the
	// six-step twiddle W[j2][k1] *= w_n^(j2*k1).  Entirely local.
	p.Phase("row-ffts")
	logR := bits.TrailingZeros(uint(R))
	for j2 := lo2; j2 < hi2; j2++ {
		row := f.wv[j2*R : (j2+1)*R]
		p.ReadRange(f.w, j2*R, (j2+1)*R)
		fourier.InPlace(row, false)
		for k1 := 0; k1 < R; k1++ {
			row[k1] *= fourier.Twiddle(n, j2, k1)
		}
		p.Compute(int64(R)*int64(logR)*FlopCycles + int64(R)*2*FlopCycles)
		p.WriteRange(f.w, j2*R, (j2+1)*R)
	}
	f.bars[1].Arrive(p)

	// Phase 3: transpose W (C x R) into V (R x C): owned V rows k1 in
	// [lo1, hi1); read consecutive remote slices W[j2*R + lo1 : hi1].
	p.Phase("transpose-2")
	lo1, hi1 := share(R, P, p.ID)
	for j2 := 0; j2 < C; j2++ {
		p.ReadRange(f.w, j2*R+lo1, j2*R+hi1)
		for k1 := lo1; k1 < hi1; k1++ {
			f.vv[k1*C+j2] = f.wv[j2*R+k1]
			p.WriteElem(f.v, k1*C+j2)
		}
		p.Compute(int64(hi1-lo1) * LoopCycles)
	}
	f.bars[2].Arrive(p)

	// Phase 4: C-point FFT of each owned V row (over j2).  Local.
	p.Phase("col-ffts")
	logC := bits.TrailingZeros(uint(C))
	for k1 := lo1; k1 < hi1; k1++ {
		row := f.vv[k1*C : (k1+1)*C]
		p.ReadRange(f.v, k1*C, (k1+1)*C)
		fourier.InPlace(row, false)
		p.Compute(int64(C) * int64(logC) * FlopCycles)
		p.WriteRange(f.v, k1*C, (k1+1)*C)
	}
	f.bars[3].Arrive(p)
}

// Check compares the distributed result, X[k2*R + k1] = V[k1][k2],
// against an independent host FFT of the input.
func (f *FFT) Check() error {
	fourier.FFT(f.want, f.input)
	for k1 := 0; k1 < f.R; k1++ {
		for k2 := 0; k2 < f.C; k2++ {
			f.got[k2*f.R+k1] = f.vv[k1*f.C+k2]
		}
	}
	if err := fourier.MaxErr(f.got, f.want); err > 1e-6*float64(f.N) {
		return fmt.Errorf("fft: max error %g vs reference", err)
	}
	return nil
}
