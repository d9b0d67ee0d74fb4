package dcmath

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"runtime"
	"sync"
	"testing"
)

// bigPrec is the precision of the math/big reference: 128 bits, 75
// more than float64 carries, so a measured error is exact to far
// below a thousandth of an ULP.
const bigPrec = 128

// bigTerms is the degree of the reference's Taylor series for exp(r),
// |r| < ln2/256: the first term left out, r^13/13!, is below 2^-143.
const bigTerms = 12

// bigConsts are the reference's constants, computed once with
// math/big alone: ln2 from its atanh series and 2^(j/256) from
// repeated square roots of 2.
type bigConsts struct {
	ln2     *big.Float
	ln2N    *big.Float // ln2/256
	invLn2N *big.Float // 256/ln2
	pow2    [256]*big.Float
	invFact [bigTerms + 1]*big.Float // 1/n!
}

var bigRef = sync.OnceValue(func() *bigConsts {
	const prec = bigPrec + 64
	nf := func() *big.Float { return new(big.Float).SetPrec(prec) }
	c := &bigConsts{}
	// ln2 = 2 atanh(1/3) = 2 * sum (1/3)^(2k+1) / (2k+1).
	third := nf().Quo(nf().SetInt64(1), nf().SetInt64(3))
	ninth := nf().Mul(third, third)
	sum, pw, term := nf(), nf().Set(third), nf()
	for k := int64(0); k < 80; k++ {
		term.Quo(pw, nf().SetInt64(2*k+1))
		sum.Add(sum, term)
		pw.Mul(pw, ninth)
	}
	c.ln2 = nf().Mul(sum, nf().SetInt64(2))
	c.ln2N = nf().Quo(c.ln2, nf().SetInt64(256))
	c.invLn2N = nf().Quo(nf().SetInt64(256), c.ln2)
	for j := range c.pow2 {
		c.pow2[j] = pow2Frac(j, 8, prec)
	}
	f := nf().SetInt64(1)
	for n := range c.invFact {
		if n > 0 {
			f.Mul(f, nf().SetInt64(int64(n)))
		}
		c.invFact[n] = nf().Quo(nf().SetInt64(1), f)
	}
	return c
})

// pow2Frac returns 2^(j/2^bits) for 0 <= j < 2^bits at prec bits, as
// a product of the roots 2^(2^b/2^bits), each bits-b square roots of 2.
func pow2Frac(j, bits int, prec uint) *big.Float {
	v := new(big.Float).SetPrec(prec).SetInt64(1)
	for b := 0; b < bits; b++ {
		if j>>b&1 == 0 {
			continue
		}
		root := new(big.Float).SetPrec(prec).SetInt64(2)
		for s := 0; s < bits-b; s++ {
			root.Sqrt(root)
		}
		v.Mul(v, root)
	}
	return v
}

// bigMath is one goroutine's reference evaluator: the shared constants
// and its own scratch. z and x are left to the caller, for a reference
// result and its argument.
type bigMath struct {
	c                      *bigConsts
	t, r, p, d, a, l, z, x *big.Float
}

func newBigMath() *bigMath {
	nf := func() *big.Float { return new(big.Float).SetPrec(bigPrec) }
	return &bigMath{c: bigRef(), t: nf(), r: nf(), p: nf(), d: nf(), a: nf(), l: nf(), z: nf(), x: nf()}
}

// exp sets z = e^a: a = j*ln2/256 + r with |r| < ln2/256, then
// e^a = 2^(j>>8) * 2^((j&255)/256) * e^r, e^r by its Taylor series.
func (m *bigMath) exp(z, a *big.Float) *big.Float {
	m.t.Mul(a, m.c.invLn2N)
	j, _ := m.t.Int64() // truncated: |r| < ln2/256 either way
	m.r.SetInt64(j)
	m.r.Mul(m.r, m.c.ln2N)
	m.r.Sub(a, m.r)
	m.p.Set(m.c.invFact[bigTerms])
	for n := bigTerms - 1; n >= 0; n-- {
		m.p.Mul(m.p, m.r)
		m.p.Add(m.p, m.c.invFact[n])
	}
	z.Mul(m.p, m.c.pow2[j&255])
	return z.SetMantExp(z, int(j>>8))
}

// log sets z = ln x for a finite x > 0: x = f*2^e with f in [0.5, 1),
// ln f by one Newton step on e^l = f from math.Log(f) (its 2^-53 error
// squared), plus e*ln2.
func (m *bigMath) log(z *big.Float, x float64) *big.Float {
	f, e := math.Frexp(x)
	m.l.SetFloat64(math.Log(f))
	m.exp(m.a, m.l)
	m.d.SetFloat64(f)
	m.d.Quo(m.d, m.a)
	m.l.Add(m.l, m.d)
	m.l.Sub(m.l, big.NewFloat(1))
	m.d.SetInt64(int64(e))
	m.d.Mul(m.d, m.c.ln2)
	return z.Add(m.l, m.d)
}

// ulps returns |got - ref| in units of the float64 spacing at ref
// (2^-1074 in the subnormal range).
func (m *bigMath) ulps(got float64, ref *big.Float) float64 {
	m.d.SetFloat64(got)
	m.d.Sub(m.d, ref)
	m.d.Abs(m.d)
	ulpExp := ref.MantExp(nil) - 53 // ref in [2^(e-1), 2^e)
	if ulpExp < -1074 {
		ulpExp = -1074
	}
	u, _ := m.d.SetMantExp(m.d, -ulpExp).Float64()
	return u
}

// errStats are the largest error over a set of inputs, its input, and
// the mean error.
type errStats[In any] struct {
	worst, mean float64
	at          In
}

// measure runs errOf over inputs on every core, each goroutine with
// its own bigMath. errOf writes one error per column into errs, and
// measure returns each column's errStats.
func measure[In any](inputs []In, cols int, errOf func(m *bigMath, in In, errs []float64)) []errStats[In] {
	workers := runtime.GOMAXPROCS(0)
	results := make([][]errStats[In], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := newBigMath()
			res, errs := make([]errStats[In], cols), make([]float64, cols)
			for i := w; i < len(inputs); i += workers {
				errOf(m, inputs[i], errs)
				for c, e := range errs {
					res[c].mean += e
					if e > res[c].worst || math.IsNaN(e) {
						res[c].worst, res[c].at = e, inputs[i]
					}
				}
			}
			results[w] = res
		}(w)
	}
	wg.Wait()
	total := make([]errStats[In], cols)
	for _, res := range results {
		for c, r := range res {
			total[c].mean += r.mean / float64(len(inputs))
			if r.worst > total[c].worst || math.IsNaN(r.worst) {
				total[c].worst, total[c].at = r.worst, r.at
			}
		}
	}
	return total
}

// expBoundaries are Exp's edge inputs: the thresholds of each of its
// paths, the edge of the subnormal range and the ends of the domain.
func expBoundaries() []float64 {
	var xs []float64
	for _, x := range []float64{
		0x1p-54, 0x1p-28, 1, 512, // tiny, math.Exp's near-zero bound, the fast path's end
		-708.3964185322641, // ln 2^-1022: results turn subnormal below
		709.782712893383973096, -745.133219101941108420,
		math.Ln2 / 256, math.Ln2 / 128, 1e-300, 5e-324,
	} {
		for _, s := range []float64{x, -x} {
			xs = append(xs, s, math.Nextafter(s, math.Inf(1)), math.Nextafter(s, math.Inf(-1)))
		}
	}
	var in []float64
	for _, x := range xs {
		if x >= expUnderflow && x <= expOverflow {
			in = append(in, x)
		}
	}
	return in
}

// expInputs are n seeded inputs over [expUnderflow, expOverflow]:
// half uniform over the domain, half ±f*2^e with f uniform over
// [1, 2) and e over [-60, 9], which covers the tiny arguments the
// uniform half misses. The products are rounded explicitly, so the set
// is the same on every host.
func expInputs(seed uint64, n int) []float64 {
	rng := NewRNG(seed)
	in := make([]float64, 0, n)
	for len(in) < n {
		x := expUnderflow + float64(rng.Float64()*(expOverflow-expUnderflow))
		if len(in)%2 == 1 {
			x = math.Ldexp(1+rng.Float64(), rng.IntRange(-60, 9))
			if rng.Bool(0.5) {
				x = -x
			}
		}
		if x >= expUnderflow && x <= expOverflow {
			in = append(in, x)
		}
	}
	return in
}

// TestExpAccuracy: over 10^6 seeded inputs and the boundaries, Exp is
// within 1 ULP of a math/big reference, subnormal results included.
func TestExpAccuracy(t *testing.T) {
	in := append(expInputs(1, 1_000_000), expBoundaries()...)
	subnormal := 0
	for _, x := range in {
		if y := Exp(x); y != 0 && y < 0x1p-1022 {
			subnormal++
		}
	}
	if subnormal < 1000 {
		t.Fatalf("only %d inputs have subnormal results", subnormal)
	}
	st := measure(in, 1, func(m *bigMath, x float64, errs []float64) {
		errs[0] = m.ulps(Exp(x), m.exp(m.z, m.x.SetFloat64(x)))
	})[0]
	t.Logf("Exp: largest error %.4f ULP at x = %v, mean %.4f ULP (%d inputs, %d subnormal results)",
		st.worst, st.at, st.mean, len(in), subnormal)
	if !(st.worst <= 1) {
		t.Errorf("Exp(%v) is %.4f ULP from exp", st.at, st.worst)
	}
}

// TestExpTable recomputes expTable with math/big: H = 2^(i/128)
// rounded to float64 and T = 2^(i/128)/H - 1 rounded to float64.
func TestExpTable(t *testing.T) {
	const prec = 256
	for i := range expTable {
		v := pow2Frac(i, expTableBits, prec)
		h, _ := v.Float64()
		hb := new(big.Float).SetPrec(prec).SetFloat64(h)
		tail, _ := new(big.Float).SetPrec(prec).Quo(new(big.Float).SetPrec(prec).Sub(v, hb), hb).Float64()
		want := [2]uint64{math.Float64bits(tail), math.Float64bits(h) - uint64(i)<<45}
		if expTable[i] != want {
			t.Errorf("expTable[%d] = %#016x, want %#016x", i, expTable[i], want)
		}
	}
}

// TestExpSpecialValues: wherever math.Exp returns a special value
// (NaN, infinities and ±0 in, or a result beyond its thresholds), or
// 1+x for |x| < 2^-54, Exp returns the same bits.
func TestExpSpecialValues(t *testing.T) {
	for _, x := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.Nextafter(expOverflow, math.Inf(1)), 710, 1000, 1e300, math.MaxFloat64,
		math.Nextafter(expUnderflow, math.Inf(-1)), -746, -1000, -1e300, -math.MaxFloat64,
		0x1p-55, -0x1p-55, 5e-324, -5e-324, 1e-300, -1e-300,
	} {
		got, want := Exp(x), math.Exp(x)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("Exp(%v) = %v, math.Exp = %v", x, got, want)
		}
	}
}

// powInputs are n seeded pairs with x > 0 and a finite, nonzero
// result: three quarters with x = f*2^e (f uniform over [1, 2), e over
// [-64, 63]) and y uniform over [-10, 10], and one quarter shaped like
// the callers' (a texture working set over a cache, from 1 to 2^20,
// raised to 1.3, and a span ratio from 1 to 2^12 raised to 1/n for n
// from 1 to 64).
// The products are rounded explicitly, so the set is the same on every
// host.
func powInputs(seed uint64, n int) [][2]float64 {
	rng := NewRNG(seed)
	in := make([][2]float64, n)
	for i := range in {
		switch i % 8 {
		case 0:
			in[i] = [2]float64{1 + math.Ldexp(rng.Float64(), rng.IntRange(0, 20)), 1.3}
		case 1:
			in[i] = [2]float64{1 + math.Ldexp(rng.Float64(), rng.IntRange(0, 12)), 1 / float64(rng.IntRange(1, 64))}
		default:
			in[i] = [2]float64{math.Ldexp(1+rng.Float64(), rng.IntRange(-64, 63)), float64(20*rng.Float64()) - 10}
		}
	}
	return in
}

// TestPowAccuracy: on the same seeded inputs, measured against a
// math/big reference, Pow's largest and mean errors are no larger than
// math.Pow's. The two differ only in their exp, so each input's errors
// differ by at most about one ULP of that exp's result.
func TestPowAccuracy(t *testing.T) {
	in := powInputs(1, 200_000)
	st := measure(in, 2, func(m *bigMath, xy [2]float64, errs []float64) {
		m.log(m.z, xy[0])
		m.z.Mul(m.z, m.x.SetFloat64(xy[1]))
		ref := m.exp(m.a, m.z)
		errs[0] = m.ulps(Pow(xy[0], xy[1]), ref)
		errs[1] = m.ulps(math.Pow(xy[0], xy[1]), ref)
	})
	dc, std := st[0], st[1]
	t.Logf("Pow: largest error %.4f ULP at %v, mean %.4f ULP; math.Pow: largest %.4f ULP at %v, mean %.4f ULP",
		dc.worst, dc.at, dc.mean, std.worst, std.at, std.mean)
	if !(dc.worst <= std.worst) || !(dc.mean <= std.mean) {
		t.Errorf("Pow is less accurate than math.Pow: largest error %.4f > %.4f ULP or mean %.4f > %.4f ULP",
			dc.worst, std.worst, dc.mean, std.mean)
	}
}

// powSpecials are the operands of Pow's special cases.
var powSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 2, -2, 3, -3, 2.5, -2.5,
	1 << 53, -(1 << 53), 1 << 63, -(1 << 63), 1e300, -1e300, 1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// powUsesExp reports whether math.Pow(x, y) takes its Exp step, the
// only step where Pow differs from it.
func powUsesExp(x, y float64) bool {
	if y == 0 || y == 1 || x == 1 || x == 0 || y == 0.5 || y == -0.5 ||
		math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) || x < 0 {
		return false
	}
	yi, yf := math.Modf(math.Abs(y))
	return yf != 0 && yi < 1<<63
}

// TestPowSpecialCases holds Pow to each special case of its doc
// comment (math.Pow's), and to math.Pow's bits on every pair of
// special operands that does not reach the Exp step.
func TestPowSpecialCases(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	for _, c := range []struct{ x, y, want float64 }{
		{7, 0, 1}, {nan, negZero, 1}, {1, nan, 1}, {1, inf, 1}, {-7.5, 1, -7.5}, {nan, 1, nan},
		{nan, 2, nan}, {2, nan, nan},
		{0, -3, inf}, {negZero, -3, -inf},
		{0, -inf, inf}, {negZero, -inf, inf},
		{0, inf, 0}, {negZero, inf, 0},
		{0, -2, inf}, {negZero, -2.5, inf},
		{0, 3, 0}, {negZero, 3, negZero},
		{0, 2.5, 0}, {negZero, 2, 0},
		{-1, inf, 1}, {-1, -inf, 1},
		{2, inf, inf}, {-2, inf, inf},
		{2, -inf, 0}, {-2, -inf, 0},
		{0.5, inf, 0}, {-0.5, inf, 0},
		{0.5, -inf, inf}, {-0.5, -inf, inf},
		{inf, 2.5, inf}, {inf, -2.5, 0},
		{-inf, 3, -inf}, {-inf, 2, inf}, {-inf, -3, negZero}, {-inf, -2, 0},
		{-2, 2.5, nan}, {-0.5, -0.5, nan},
	} {
		got := Pow(c.x, c.y)
		if math.Float64bits(got) != math.Float64bits(c.want) && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("Pow(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
	for _, x := range powSpecials {
		for _, y := range powSpecials {
			if powUsesExp(x, y) {
				continue
			}
			got, want := Pow(x, y), math.Pow(x, y)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("Pow(%v, %v) = %v, math.Pow = %v", x, y, got, want)
			}
		}
	}
}

// TestExpPowPinned pins Exp's and Pow's bits on a fixed input set, so
// a CPU, an architecture or a compiler that moves one bit fails here,
// before any golden file or digest downstream does.
func TestExpPowPinned(t *testing.T) {
	const want = "fd7362ba1ff6661e60166227df9d0f6611bef0531731a9e69daac7bb6a458730"
	h := sha256.New()
	put := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	for _, x := range append(expInputs(7, 1<<14), expBoundaries()...) {
		put(Exp(x))
	}
	for _, xy := range powInputs(7, 1<<14) {
		put(Pow(xy[0], xy[1]))
	}
	for _, x := range powSpecials {
		for _, y := range powSpecials {
			put(Pow(x, y))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Exp and Pow outputs hash to %s, pinned %s", got, want)
	}
}

// BenchmarkExp times Exp against math.Exp on arguments shaped like
// the noise factor's sigma*z.
func BenchmarkExp(b *testing.B) {
	rng := NewRNG(1)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 0.5 * rng.NormFloat64()
	}
	for _, bc := range []struct {
		name string
		exp  func(float64) float64
	}{{"dcmath", Exp}, {"math", math.Exp}} {
		b.Run(bc.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += bc.exp(xs[i&1023])
			}
			benchSink = sum
		})
	}
}

var benchSink float64
