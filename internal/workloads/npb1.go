package workloads

import "repro/internal/ir"

// BuildBT mimics NAS BT (block tridiagonal solver): the block Thomas
// algorithm over 3×3 blocks — forward elimination with explicit 3×3
// inversion (adjugate/determinant), block matrix-matrix and matrix-vector
// products, then back substitution. Dense small-block arithmetic dominates,
// as in the original's x/y/z solves.
func BuildBT() *ir.Module {
	m, b := newModule("BT")
	const nb = 26                                        // block rows
	m.AddGlobal(ir.Global{Name: "ab", Size: nb * 9 * 8}) // sub-diagonal blocks
	m.AddGlobal(ir.Global{Name: "bb", Size: nb * 9 * 8}) // diagonal blocks
	m.AddGlobal(ir.Global{Name: "cb", Size: nb * 9 * 8}) // super-diagonal blocks
	m.AddGlobal(ir.Global{Name: "rhs", Size: nb * 3 * 8})
	m.AddGlobal(ir.Global{Name: "cp", Size: nb * 9 * 8}) // modified super blocks
	m.AddGlobal(ir.Global{Name: "dp", Size: nb * 3 * 8}) // modified rhs
	addLCG(m, b)

	// inv3(dst, src): 3×3 inverse via adjugate; assumes well-conditioned.
	b.NewFunc("inv3", ir.Void, ir.Ptr, ir.Ptr)
	{
		dst, src := b.Param(0), b.Param(1)
		at := func(p *ir.Value, r, c int64) *ir.Value {
			return b.Load(ir.F64, b.Index(p, b.ConstI(r*3+c)))
		}
		cof := func(r1, c1, r2, c2 int64) *ir.Value {
			return b.FSub(b.FMul(at(src, r1, c1), at(src, r2, c2)), b.FMul(at(src, r1, c2), at(src, r2, c1)))
		}
		c00 := cof(1, 1, 2, 2)
		c01 := b.FNeg(cof(1, 0, 2, 2))
		c02 := cof(1, 0, 2, 1)
		det := b.FAdd(b.FAdd(b.FMul(at(src, 0, 0), c00), b.FMul(at(src, 0, 1), c01)), b.FMul(at(src, 0, 2), c02))
		invDet := b.FDiv(b.ConstF(1), det)
		// Adjugate transpose, scaled.
		store := func(r, c int64, v *ir.Value) {
			b.Store(b.FMul(v, invDet), b.Index(dst, b.ConstI(r*3+c)))
		}
		store(0, 0, c00)
		store(1, 0, c01)
		store(2, 0, c02)
		store(0, 1, b.FNeg(cof(0, 1, 2, 2)))
		store(1, 1, cof(0, 0, 2, 2))
		store(2, 1, b.FNeg(cof(0, 0, 2, 1)))
		store(0, 2, cof(0, 1, 1, 2))
		store(1, 2, b.FNeg(cof(0, 0, 1, 2)))
		store(2, 2, cof(0, 0, 1, 1))
		b.Ret(nil)
	}

	// mm3(dst, a, b): dst = a·b (3×3).
	b.NewFunc("mm3", ir.Void, ir.Ptr, ir.Ptr, ir.Ptr)
	{
		dst, aa, bbp := b.Param(0), b.Param(1), b.Param(2)
		b.Loop(b.ConstI(0), b.ConstI(3), b.ConstI(1), func(r *ir.Value) {
			b.Loop(b.ConstI(0), b.ConstI(3), b.ConstI(1), func(c *ir.Value) {
				acc := b.NewVar(ir.F64, b.ConstF(0))
				b.Loop(b.ConstI(0), b.ConstI(3), b.ConstI(1), func(k *ir.Value) {
					av := b.Load(ir.F64, b.Index(aa, b.Add(b.Mul(r, b.ConstI(3)), k)))
					bv := b.Load(ir.F64, b.Index(bbp, b.Add(b.Mul(k, b.ConstI(3)), c)))
					acc.Set(b.FAdd(acc.Get(), b.FMul(av, bv)))
				})
				b.Store(acc.Get(), b.Index(dst, b.Add(b.Mul(r, b.ConstI(3)), c)))
			})
		})
		b.Ret(nil)
	}

	// mv3(dst, a, v): dst = a·v.
	b.NewFunc("mv3", ir.Void, ir.Ptr, ir.Ptr, ir.Ptr)
	{
		dst, aa, v := b.Param(0), b.Param(1), b.Param(2)
		b.Loop(b.ConstI(0), b.ConstI(3), b.ConstI(1), func(r *ir.Value) {
			acc := b.NewVar(ir.F64, b.ConstF(0))
			b.Loop(b.ConstI(0), b.ConstI(3), b.ConstI(1), func(k *ir.Value) {
				av := b.Load(ir.F64, b.Index(aa, b.Add(b.Mul(r, b.ConstI(3)), k)))
				acc.Set(b.FAdd(acc.Get(), b.FMul(av, b.Load(ir.F64, b.Index(v, k)))))
			})
			b.Store(acc.Get(), b.Index(dst, r))
		})
		b.Ret(nil)
	}

	b.NewFunc("main", ir.I64)
	{
		seedLCG(b, 314159)
		ab, bbG, cb := b.GlobalAddr("ab"), b.GlobalAddr("bb"), b.GlobalAddr("cb")
		rhs, cp, dp := b.GlobalAddr("rhs"), b.GlobalAddr("cp"), b.GlobalAddr("dp")
		// Diagonally dominant random blocks.
		b.Loop(b.ConstI(0), b.ConstI(nb), b.ConstI(1), func(i *ir.Value) {
			b.Loop(b.ConstI(0), b.ConstI(9), b.ConstI(1), func(k *ir.Value) {
				idx := b.Add(b.Mul(i, b.ConstI(9)), k)
				small := func() *ir.Value {
					return b.FMul(b.FSub(b.Call("rand_f"), b.ConstF(0.5)), b.ConstF(0.2))
				}
				b.Store(small(), b.Index(ab, idx))
				b.Store(small(), b.Index(cb, idx))
				diagBoost := b.Select(
					b.ICmp(ir.EQ, b.SRem(k, b.ConstI(4)), b.ConstI(0)),
					b.ConstF(4), b.ConstF(0))
				b.Store(b.FAdd(small(), diagBoost), b.Index(bbG, idx))
			})
			b.Loop(b.ConstI(0), b.ConstI(3), b.ConstI(1), func(k *ir.Value) {
				b.Store(b.Call("rand_f"), b.Index(rhs, b.Add(b.Mul(i, b.ConstI(3)), k)))
			})
		})

		binv := b.Alloca(9 * 8)
		tmpM := b.Alloca(9 * 8)
		tmpV := b.Alloca(3 * 8)
		work := b.Alloca(9 * 8)

		// Forward elimination: cp[0]=B0⁻¹C0, dp[0]=B0⁻¹r0; then
		// denom = Bi − Ai·cp[i−1]; cp[i] = denom⁻¹·Ci; dp[i] = denom⁻¹(ri − Ai·dp[i−1]).
		blockAt := func(p *ir.Value, i *ir.Value) *ir.Value { return b.GEP(p, i, 72, 0) }
		vecAt := func(p *ir.Value, i *ir.Value) *ir.Value { return b.GEP(p, i, 24, 0) }

		i0 := b.ConstI(0)
		b.Call("inv3", binv, blockAt(bbG, i0))
		b.Call("mm3", blockAt(cp, i0), binv, blockAt(cb, i0))
		b.Call("mv3", vecAt(dp, i0), binv, vecAt(rhs, i0))
		b.Loop(b.ConstI(1), b.ConstI(nb), b.ConstI(1), func(i *ir.Value) {
			im1 := b.Sub(i, b.ConstI(1))
			// work = Bi − Ai·cp[i−1]
			b.Call("mm3", tmpM, blockAt(ab, i), blockAt(cp, im1))
			b.Loop(b.ConstI(0), b.ConstI(9), b.ConstI(1), func(k *ir.Value) {
				bi := b.Load(ir.F64, b.Index(blockAt(bbG, i), k))
				tv := b.Load(ir.F64, b.Index(tmpM, k))
				b.Store(b.FSub(bi, tv), b.Index(work, k))
			})
			b.Call("inv3", binv, work)
			b.Call("mm3", blockAt(cp, i), binv, blockAt(cb, i))
			// tmpV = ri − Ai·dp[i−1]
			b.Call("mv3", tmpV, blockAt(ab, i), vecAt(dp, im1))
			b.Loop(b.ConstI(0), b.ConstI(3), b.ConstI(1), func(k *ir.Value) {
				rv := b.Load(ir.F64, b.Index(vecAt(rhs, i), k))
				b.Store(b.FSub(rv, b.Load(ir.F64, b.Index(tmpV, k))), b.Index(tmpV, k))
			})
			b.Call("mv3", vecAt(dp, i), binv, tmpV)
		})
		// Back substitution: x[i] = dp[i] − cp[i]·x[i+1] (reuse dp as x).
		b.Loop(b.ConstI(1), b.ConstI(nb), b.ConstI(1), func(k *ir.Value) {
			i := b.Sub(b.ConstI(nb-1), k)
			ip1 := b.Add(i, b.ConstI(1))
			b.Call("mv3", tmpV, blockAt(cp, i), vecAt(dp, ip1))
			b.Loop(b.ConstI(0), b.ConstI(3), b.ConstI(1), func(c *ir.Value) {
				cur := b.Load(ir.F64, b.Index(vecAt(dp, i), c))
				b.Store(b.FSub(cur, b.Load(ir.F64, b.Index(tmpV, c))), b.Index(vecAt(dp, i), c))
			})
		})
		emitChecksum(b, dp, nb*3)
		b.Ret(b.ConstI(0))
	}
	return m
}

// BuildCG mimics NAS CG: power iteration over a randomly structured sparse
// matrix in CSR-like storage, with the irregular indexed gathers that define
// the original's memory behaviour.
func BuildCG() *ir.Module {
	m, b := newModule("CG")
	const n = 110
	const nnzRow = 5
	m.AddGlobal(ir.Global{Name: "colidx", Size: n * nnzRow * 8})
	m.AddGlobal(ir.Global{Name: "aval", Size: n * nnzRow * 8})
	m.AddGlobal(ir.Global{Name: "adiag", Size: n * 8})
	m.AddGlobal(ir.Global{Name: "xv", Size: n * 8})
	m.AddGlobal(ir.Global{Name: "yv", Size: n * 8})
	addLCG(m, b)

	// spmv(y, x): y = A·x over CSR-ish fixed-degree rows.
	b.NewFunc("spmv", ir.Void, ir.Ptr, ir.Ptr)
	{
		y, x := b.Param(0), b.Param(1)
		colidx, aval, adiag := b.GlobalAddr("colidx"), b.GlobalAddr("aval"), b.GlobalAddr("adiag")
		b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
			acc := b.NewVar(ir.F64, b.FMul(b.Load(ir.F64, b.Index(adiag, i)), b.Load(ir.F64, b.Index(x, i))))
			b.Loop(b.ConstI(0), b.ConstI(nnzRow), b.ConstI(1), func(k *ir.Value) {
				idx := b.Add(b.Mul(i, b.ConstI(nnzRow)), k)
				col := b.Load(ir.I64, b.Index(colidx, idx))
				av := b.Load(ir.F64, b.Index(aval, idx))
				acc.Set(b.FAdd(acc.Get(), b.FMul(av, b.Load(ir.F64, b.Index(x, col)))))
			})
			b.Store(acc.Get(), b.Index(y, i))
		})
		b.Ret(nil)
	}

	// norm(v) = sqrt(Σ v²).
	b.NewFunc("norm", ir.F64, ir.Ptr)
	{
		acc := b.NewVar(ir.F64, b.ConstF(0))
		b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
			v := b.Load(ir.F64, b.Index(b.Param(0), i))
			acc.Set(b.FAdd(acc.Get(), b.FMul(v, v)))
		})
		b.Ret(b.FSqrt(acc.Get()))
	}

	b.NewFunc("main", ir.I64)
	{
		seedLCG(b, 1363)
		colidx, aval, adiag := b.GlobalAddr("colidx"), b.GlobalAddr("aval"), b.GlobalAddr("adiag")
		xv, yv := b.GlobalAddr("xv"), b.GlobalAddr("yv")
		b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
			b.Store(b.FAdd(b.ConstF(6), b.Call("rand_f")), b.Index(adiag, i))
			b.Store(b.ConstF(1), b.Index(xv, i))
			b.Loop(b.ConstI(0), b.ConstI(nnzRow), b.ConstI(1), func(k *ir.Value) {
				idx := b.Add(b.Mul(i, b.ConstI(nnzRow)), k)
				b.Store(b.SRem(b.Call("rand_u"), b.ConstI(n)), b.Index(colidx, idx))
				b.Store(b.FMul(b.FSub(b.Call("rand_f"), b.ConstF(0.5)), b.ConstF(0.8)), b.Index(aval, idx))
			})
		})
		lambda := b.NewVar(ir.F64, b.ConstF(0))
		b.Loop(b.ConstI(0), b.ConstI(9), b.ConstI(1), func(_ *ir.Value) {
			b.Call("spmv", yv, xv)
			// λ = xᵀy (Rayleigh on the normalized iterate).
			acc := b.NewVar(ir.F64, b.ConstF(0))
			b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
				acc.Set(b.FAdd(acc.Get(), b.FMul(b.Load(ir.F64, b.Index(xv, i)), b.Load(ir.F64, b.Index(yv, i)))))
			})
			lambda.Set(acc.Get())
			nrm := b.Call("norm", yv)
			b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
				b.Store(b.FDiv(b.Load(ir.F64, b.Index(yv, i)), nrm), b.Index(xv, i))
			})
		})
		b.Call("out_f64", lambda.Get())
		emitChecksum(b, xv, n)
		b.Ret(b.ConstI(0))
	}
	return m
}

// BuildDC mimics NAS DC (data cube): tuple generation, group-by aggregation
// into materialized views at three granularities, and rollup verification —
// a purely integer, indexed-memory workload, the counterpoint to the
// FP-dense kernels.
func BuildDC() *ir.Module {
	m, b := newModule("DC")
	const nt = 280
	const da, db, dc = 8, 6, 4
	m.AddGlobal(ir.Global{Name: "ta", Size: nt * 8})
	m.AddGlobal(ir.Global{Name: "tb", Size: nt * 8})
	m.AddGlobal(ir.Global{Name: "tc", Size: nt * 8})
	m.AddGlobal(ir.Global{Name: "tm", Size: nt * 8})
	m.AddGlobal(ir.Global{Name: "viewA", Size: da * 8})
	m.AddGlobal(ir.Global{Name: "viewAB", Size: da * db * 8})
	m.AddGlobal(ir.Global{Name: "viewABC", Size: da * db * dc * 8})
	addLCG(m, b)

	// generate(): deterministic pseudo-random tuples.
	b.NewFunc("generate", ir.Void)
	{
		ta, tb, tc, tm := b.GlobalAddr("ta"), b.GlobalAddr("tb"), b.GlobalAddr("tc"), b.GlobalAddr("tm")
		b.Loop(b.ConstI(0), b.ConstI(nt), b.ConstI(1), func(i *ir.Value) {
			b.Store(b.SRem(b.Call("rand_u"), b.ConstI(da)), b.Index(ta, i))
			b.Store(b.SRem(b.Call("rand_u"), b.ConstI(db)), b.Index(tb, i))
			b.Store(b.SRem(b.Call("rand_u"), b.ConstI(dc)), b.Index(tc, i))
			b.Store(b.SRem(b.Call("rand_u"), b.ConstI(1000)), b.Index(tm, i))
		})
		b.Ret(nil)
	}

	// aggregate(): scatter-add measures into the three views.
	b.NewFunc("aggregate", ir.Void)
	{
		ta, tb, tc, tm := b.GlobalAddr("ta"), b.GlobalAddr("tb"), b.GlobalAddr("tc"), b.GlobalAddr("tm")
		vA, vAB, vABC := b.GlobalAddr("viewA"), b.GlobalAddr("viewAB"), b.GlobalAddr("viewABC")
		b.Loop(b.ConstI(0), b.ConstI(nt), b.ConstI(1), func(i *ir.Value) {
			a := b.Load(ir.I64, b.Index(ta, i))
			bb := b.Load(ir.I64, b.Index(tb, i))
			cc := b.Load(ir.I64, b.Index(tc, i))
			mv := b.Load(ir.I64, b.Index(tm, i))
			add := func(view *ir.Value, idx *ir.Value) {
				b.Store(b.Add(b.Load(ir.I64, b.Index(view, idx)), mv), b.Index(view, idx))
			}
			add(vA, a)
			ab := b.Add(b.Mul(a, b.ConstI(db)), bb)
			add(vAB, ab)
			add(vABC, b.Add(b.Mul(ab, b.ConstI(dc)), cc))
		})
		b.Ret(nil)
	}

	// rollup(view, size) = Σ view[i]·(i+1) — an order-sensitive checksum.
	b.NewFunc("rollup", ir.I64, ir.Ptr, ir.I64)
	{
		acc := b.NewVar(ir.I64, b.ConstI(0))
		b.Loop(b.ConstI(0), b.Param(1), b.ConstI(1), func(i *ir.Value) {
			v := b.Load(ir.I64, b.Index(b.Param(0), i))
			acc.Set(b.Add(acc.Get(), b.Mul(v, b.Add(i, b.ConstI(1)))))
		})
		b.Ret(acc.Get())
	}

	b.NewFunc("main", ir.I64)
	{
		seedLCG(b, 424242)
		b.Call("generate")
		b.Call("aggregate")
		vA, vAB, vABC := b.GlobalAddr("viewA"), b.GlobalAddr("viewAB"), b.GlobalAddr("viewABC")
		sumA := b.Call("rollup", vA, b.ConstI(da))
		sumAB := b.Call("rollup", vAB, b.ConstI(da*db))
		sumABC := b.Call("rollup", vABC, b.ConstI(da*db*dc))
		b.Call("out_i64", sumA)
		b.Call("out_i64", sumAB)
		b.Call("out_i64", sumABC)
		// Consistency check: total measure must agree across granularities.
		tot := b.NewVar(ir.I64, b.ConstI(0))
		b.Loop(b.ConstI(0), b.ConstI(da), b.ConstI(1), func(i *ir.Value) {
			tot.Set(b.Add(tot.Get(), b.Load(ir.I64, b.Index(vA, i))))
		})
		tot2 := b.NewVar(ir.I64, b.ConstI(0))
		b.Loop(b.ConstI(0), b.ConstI(da*db*dc), b.ConstI(1), func(i *ir.Value) {
			tot2.Set(b.Add(tot2.Get(), b.Load(ir.I64, b.Index(vABC, i))))
		})
		b.Call("out_i64", b.Sub(tot.Get(), tot2.Get())) // 0 when consistent
		b.Ret(b.ConstI(0))
	}
	return m
}

// BuildEP mimics NAS EP (embarrassingly parallel): Box–Muller Gaussian pairs
// from a pseudorandom stream, annulus counting, and coordinate sums. The
// logarithm comes from the soft-float IR library, so its arithmetic is part
// of the injection surface just like the original's libm-inlined code.
func BuildEP() *ir.Module {
	m, b := newModule("EP")
	const pairs = 120
	m.AddGlobal(ir.Global{Name: "annuli", Size: 10 * 8})
	addLCG(m, b)
	addSoftLog(m, b)

	b.NewFunc("main", ir.I64)
	{
		seedLCG(b, 271828)
		ann := b.GlobalAddr("annuli")
		sx := b.NewVar(ir.F64, b.ConstF(0))
		sy := b.NewVar(ir.F64, b.ConstF(0))
		accepted := b.NewVar(ir.I64, b.ConstI(0))
		b.Loop(b.ConstI(0), b.ConstI(pairs), b.ConstI(1), func(_ *ir.Value) {
			x := b.FSub(b.FMul(b.ConstF(2), b.Call("rand_f")), b.ConstF(1))
			y := b.FSub(b.FMul(b.ConstF(2), b.Call("rand_f")), b.ConstF(1))
			t := b.FAdd(b.FMul(x, x), b.FMul(y, y))
			inside := b.FCmp(ir.OLE, t, b.ConstF(1))
			nonzero := b.FCmp(ir.OGT, t, b.ConstF(1e-12))
			b.If(inside, func() {
				b.If(nonzero, func() {
					lt := b.Call("log_approx", t)
					s := b.FSqrt(b.FDiv(b.FMul(b.ConstF(-2), lt), t))
					gx := b.FMul(x, s)
					gy := b.FMul(y, s)
					sx.Set(b.FAdd(sx.Get(), gx))
					sy.Set(b.FAdd(sy.Get(), gy))
					accepted.Set(b.Add(accepted.Get(), b.ConstI(1)))
					mx := b.FMax(b.FAbs(gx), b.FAbs(gy))
					l := b.FPToSI(mx)
					l = b.Select(b.ICmp(ir.SGT, l, b.ConstI(9)), b.ConstI(9), l)
					b.Store(b.Add(b.Load(ir.I64, b.Index(ann, l)), b.ConstI(1)), b.Index(ann, l))
				}, nil)
			}, nil)
		})
		b.Call("out_f64", sx.Get())
		b.Call("out_f64", sy.Get())
		b.Call("out_i64", accepted.Get())
		b.Loop(b.ConstI(0), b.ConstI(10), b.ConstI(1), func(i *ir.Value) {
			b.Call("out_i64", b.Load(ir.I64, b.Index(ann, i)))
		})
		b.Ret(b.ConstI(0))
	}
	return m
}
