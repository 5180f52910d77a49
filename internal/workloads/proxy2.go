package workloads

import "repro/internal/ir"

// BuildLulesh mimics LULESH (Lagrangian shock hydrodynamics) as a 1D
// staggered-grid hydro code: nodal velocities/positions, element density,
// internal energy and pressure, artificial viscosity, and a CFL-limited time
// step — the Sod shock tube on LULESH's integration skeleton.
func BuildLulesh() *ir.Module {
	m, b := newModule("lulesh")
	const nel = 26
	const nnode = nel + 1
	m.AddGlobal(ir.Global{Name: "xn", Size: nnode * 8}) // node positions
	m.AddGlobal(ir.Global{Name: "vn", Size: nnode * 8}) // node velocities
	m.AddGlobal(ir.Global{Name: "e", Size: nel * 8})    // element energy
	m.AddGlobal(ir.Global{Name: "rho", Size: nel * 8})  // element density
	m.AddGlobal(ir.Global{Name: "prs", Size: nel * 8})  // element pressure
	m.AddGlobal(ir.Global{Name: "q", Size: nel * 8})    // artificial viscosity
	m.AddGlobal(ir.Global{Name: "mass", Size: nel * 8}) // element mass

	// eos(): p = (γ−1)·ρ·e with γ = 1.4; artificial viscosity for
	// compressing elements.
	b.NewFunc("eos", ir.Void)
	{
		e, rho, prs := b.GlobalAddr("e"), b.GlobalAddr("rho"), b.GlobalAddr("prs")
		q, vn := b.GlobalAddr("q"), b.GlobalAddr("vn")
		b.Loop(b.ConstI(0), b.ConstI(nel), b.ConstI(1), func(i *ir.Value) {
			rhoe := b.FMul(b.Load(ir.F64, b.Index(rho, i)), b.Load(ir.F64, b.Index(e, i)))
			b.Store(b.FMul(b.ConstF(0.4), rhoe), b.Index(prs, i))
			dv := b.FSub(b.Load(ir.F64, b.Index(vn, b.Add(i, b.ConstI(1)))), b.Load(ir.F64, b.Index(vn, i)))
			b.If(b.FCmp(ir.OLT, dv, b.ConstF(0)), func() {
				qq := b.FMul(b.FMul(b.ConstF(2), b.Load(ir.F64, b.Index(rho, i))), b.FMul(dv, dv))
				b.Store(qq, b.Index(q, i))
			}, func() {
				b.Store(b.ConstF(0), b.Index(q, i))
			})
		})
		b.Ret(nil)
	}

	// accelAndAdvance(dt): nodal force from pressure gradient, integrate.
	b.NewFunc("accelAndAdvance", ir.Void, ir.F64)
	{
		dt := b.Param(0)
		xn, vn := b.GlobalAddr("xn"), b.GlobalAddr("vn")
		prs, q := b.GlobalAddr("prs"), b.GlobalAddr("q")
		b.Loop(b.ConstI(1), b.ConstI(nnode-1), b.ConstI(1), func(i *ir.Value) {
			pl := b.FAdd(b.Load(ir.F64, b.Index(prs, b.Sub(i, b.ConstI(1)))), b.Load(ir.F64, b.Index(q, b.Sub(i, b.ConstI(1)))))
			pr := b.FAdd(b.Load(ir.F64, b.Index(prs, i)), b.Load(ir.F64, b.Index(q, i)))
			f := b.FSub(pl, pr)
			nv := b.FAdd(b.Load(ir.F64, b.Index(vn, i)), b.FMul(dt, f))
			b.Store(nv, b.Index(vn, i))
		})
		b.Loop(b.ConstI(0), b.ConstI(nnode), b.ConstI(1), func(i *ir.Value) {
			nx := b.FAdd(b.Load(ir.F64, b.Index(xn, i)), b.FMul(dt, b.Load(ir.F64, b.Index(vn, i))))
			b.Store(nx, b.Index(xn, i))
		})
		b.Ret(nil)
	}

	// updateState(dt): density from volume, energy from pdV work.
	b.NewFunc("updateState", ir.Void, ir.F64)
	{
		dt := b.Param(0)
		xn, vn := b.GlobalAddr("xn"), b.GlobalAddr("vn")
		e, rho := b.GlobalAddr("e"), b.GlobalAddr("rho")
		prs, q, mass := b.GlobalAddr("prs"), b.GlobalAddr("q"), b.GlobalAddr("mass")
		b.Loop(b.ConstI(0), b.ConstI(nel), b.ConstI(1), func(i *ir.Value) {
			i1 := b.Add(i, b.ConstI(1))
			vol := b.FSub(b.Load(ir.F64, b.Index(xn, i1)), b.Load(ir.F64, b.Index(xn, i)))
			b.Store(b.FDiv(b.Load(ir.F64, b.Index(mass, i)), vol), b.Index(rho, i))
			dv := b.FSub(b.Load(ir.F64, b.Index(vn, i1)), b.Load(ir.F64, b.Index(vn, i)))
			work := b.FMul(b.FAdd(b.Load(ir.F64, b.Index(prs, i)), b.Load(ir.F64, b.Index(q, i))), b.FMul(dv, dt))
			mi := b.Load(ir.F64, b.Index(mass, i))
			b.Store(b.FSub(b.Load(ir.F64, b.Index(e, i)), b.FDiv(work, mi)), b.Index(e, i))
		})
		b.Ret(nil)
	}

	b.NewFunc("main", ir.I64)
	{
		xn, vn := b.GlobalAddr("xn"), b.GlobalAddr("vn")
		e, rho, mass := b.GlobalAddr("e"), b.GlobalAddr("rho"), b.GlobalAddr("mass")
		b.Loop(b.ConstI(0), b.ConstI(nnode), b.ConstI(1), func(i *ir.Value) {
			b.Store(b.FMul(b.SIToFP(i), b.ConstF(1.0/float64(nel))), b.Index(xn, i))
			b.Store(b.ConstF(0), b.Index(vn, i))
		})
		b.Loop(b.ConstI(0), b.ConstI(nel), b.ConstI(1), func(i *ir.Value) {
			// Sod: left half hot/dense, right half cold/light.
			lhs := b.ICmp(ir.SLT, i, b.ConstI(nel/2))
			b.Store(b.Select(lhs, b.ConstF(2.5), b.ConstF(0.25)), b.Index(e, i))
			b.Store(b.Select(lhs, b.ConstF(1.0), b.ConstF(0.125)), b.Index(rho, i))
			b.Store(b.FMul(b.Load(ir.F64, b.Index(rho, i)), b.ConstF(1.0/float64(nel))), b.Index(mass, i))
		})
		b.Loop(b.ConstI(0), b.ConstI(28), b.ConstI(1), func(_ *ir.Value) {
			dt := b.ConstF(0.0008)
			b.Call("eos")
			b.Call("accelAndAdvance", dt)
			b.Call("updateState", dt)
		})
		emitChecksum(b, e, nel)
		emitChecksum(b, xn, nnode)
		b.Call("out_f64", b.Load(ir.F64, b.Index(rho, b.ConstI(nel/2))))
		b.Ret(b.ConstI(0))
	}
	return m
}

// BuildXSBench mimics XSBench (Monte Carlo neutron cross-section lookup):
// a sorted unionized energy grid, random energy samples, binary search, and
// linear interpolation over five reaction channels — the grid-search kernel
// that dominates the original's runtime.
func BuildXSBench() *ir.Module {
	m, b := newModule("XSBench")
	const nGrid = 600
	const nXS = 5
	const lookups = 220
	m.AddGlobal(ir.Global{Name: "egrid", Size: nGrid * 8})
	m.AddGlobal(ir.Global{Name: "xs", Size: nGrid * nXS * 8})
	addLCG(m, b)

	// gridSearch(energy) → lower index via binary search.
	b.NewFunc("gridSearch", ir.I64, ir.F64)
	{
		eg := b.GlobalAddr("egrid")
		lo := b.NewVar(ir.I64, b.ConstI(0))
		hi := b.NewVar(ir.I64, b.ConstI(nGrid-1))
		header := b.NewBlock()
		body := b.NewBlock()
		done := b.NewBlock()
		b.Br(header)
		b.SetInsert(header)
		b.CondBr(b.ICmp(ir.SLT, b.Add(lo.Get(), b.ConstI(1)), hi.Get()), body, done)
		b.SetInsert(body)
		mid := b.SDiv(b.Add(lo.Get(), hi.Get()), b.ConstI(2))
		mv := b.Load(ir.F64, b.Index(eg, mid))
		b.If(b.FCmp(ir.OLT, b.Param(0), mv), func() {
			hi.Set(mid)
		}, func() {
			lo.Set(mid)
		})
		b.Br(header)
		b.SetInsert(done)
		b.Ret(lo.Get())
	}

	// lookup(energy, acc): interpolate all channels, accumulate into acc[0..4].
	b.NewFunc("lookup", ir.Void, ir.F64, ir.Ptr)
	{
		eg, xs := b.GlobalAddr("egrid"), b.GlobalAddr("xs")
		idx := b.Call("gridSearch", b.Param(0))
		e0 := b.Load(ir.F64, b.Index(eg, idx))
		e1 := b.Load(ir.F64, b.Index(eg, b.Add(idx, b.ConstI(1))))
		t := b.FDiv(b.FSub(b.Param(0), e0), b.FSub(e1, e0))
		b.Loop(b.ConstI(0), b.ConstI(nXS), b.ConstI(1), func(c *ir.Value) {
			base0 := b.Add(b.Mul(idx, b.ConstI(nXS)), c)
			base1 := b.Add(base0, b.ConstI(nXS))
			x0 := b.Load(ir.F64, b.Index(xs, base0))
			x1 := b.Load(ir.F64, b.Index(xs, base1))
			v := b.FAdd(x0, b.FMul(t, b.FSub(x1, x0)))
			cur := b.Load(ir.F64, b.Index(b.Param(1), c))
			b.Store(b.FAdd(cur, v), b.Index(b.Param(1), c))
		})
		b.Ret(nil)
	}

	b.NewFunc("main", ir.I64)
	{
		seedLCG(b, 97)
		eg, xs := b.GlobalAddr("egrid"), b.GlobalAddr("xs")
		// Monotone grid: cumulative positive increments.
		prev := b.NewVar(ir.F64, b.ConstF(0))
		b.Loop(b.ConstI(0), b.ConstI(nGrid), b.ConstI(1), func(i *ir.Value) {
			inc := b.FAdd(b.Call("rand_f"), b.ConstF(0.01))
			prev.Set(b.FAdd(prev.Get(), inc))
			b.Store(prev.Get(), b.Index(eg, i))
			b.Loop(b.ConstI(0), b.ConstI(nXS), b.ConstI(1), func(c *ir.Value) {
				b.Store(b.Call("rand_f"), b.Index(xs, b.Add(b.Mul(i, b.ConstI(nXS)), c)))
			})
		})
		top := prev.Get()
		acc := b.Alloca(nXS * 8)
		b.Loop(b.ConstI(0), b.ConstI(nXS), b.ConstI(1), func(c *ir.Value) {
			b.Store(b.ConstF(0), b.Index(acc, c))
		})
		b.Loop(b.ConstI(0), b.ConstI(lookups), b.ConstI(1), func(_ *ir.Value) {
			en := b.FMul(b.Call("rand_f"), top)
			b.Call("lookup", en, acc)
		})
		b.Loop(b.ConstI(0), b.ConstI(nXS), b.ConstI(1), func(c *ir.Value) {
			b.Call("out_f64", b.Load(ir.F64, b.Index(acc, c)))
		})
		b.Ret(b.ConstI(0))
	}
	return m
}

// BuildMiniFE mimics miniFE (implicit finite elements): element-by-element
// stiffness assembly of a 1D bar into banded storage followed by a CG solve
// — the assembly+solve split that defines the original.
func BuildMiniFE() *ir.Module {
	m, b := newModule("miniFE")
	const nel = 56
	const n = nel + 1
	m.AddGlobal(ir.Global{Name: "diag", Size: n * 8})
	m.AddGlobal(ir.Global{Name: "off", Size: nel * 8}) // sub/super diagonal
	m.AddGlobal(ir.Global{Name: "rhs", Size: n * 8})
	for _, g := range []string{"u", "r", "p", "ap"} {
		m.AddGlobal(ir.Global{Name: g, Size: n * 8})
	}

	// assemble(): Σ_e k_e·[[1,−1],[−1,1]] with variable stiffness.
	b.NewFunc("assemble", ir.Void)
	{
		diag, off, rhs := b.GlobalAddr("diag"), b.GlobalAddr("off"), b.GlobalAddr("rhs")
		b.Loop(b.ConstI(0), b.ConstI(nel), b.ConstI(1), func(e *ir.Value) {
			x := b.SIToFP(e)
			k := b.FAdd(b.ConstF(1), b.FMul(b.ConstF(0.01), x)) // graded stiffness
			i1 := b.Add(e, b.ConstI(1))
			b.Store(b.FAdd(b.Load(ir.F64, b.Index(diag, e)), k), b.Index(diag, e))
			b.Store(b.FAdd(b.Load(ir.F64, b.Index(diag, i1)), k), b.Index(diag, i1))
			b.Store(b.FSub(b.Load(ir.F64, b.Index(off, e)), k), b.Index(off, e))
			// Body load: f = 1 on each element, split between nodes.
			half := b.ConstF(0.5 / float64(nel))
			b.Store(b.FAdd(b.Load(ir.F64, b.Index(rhs, e)), half), b.Index(rhs, e))
			b.Store(b.FAdd(b.Load(ir.F64, b.Index(rhs, i1)), half), b.Index(rhs, i1))
		})
		// Dirichlet u(0)=u(L)=0: pin the end equations.
		b.Store(b.ConstF(1e8), b.Index(diag, b.ConstI(0)))
		b.Store(b.ConstF(1e8), b.Index(diag, b.ConstI(n-1)))
		b.Ret(nil)
	}

	// matvec(y, x): banded tridiagonal product.
	b.NewFunc("matvec", ir.Void, ir.Ptr, ir.Ptr)
	{
		y, x := b.Param(0), b.Param(1)
		diag, off := b.GlobalAddr("diag"), b.GlobalAddr("off")
		b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
			acc := b.NewVar(ir.F64, b.FMul(b.Load(ir.F64, b.Index(diag, i)), b.Load(ir.F64, b.Index(x, i))))
			b.If(b.ICmp(ir.SGT, i, b.ConstI(0)), func() {
				im1 := b.Sub(i, b.ConstI(1))
				acc.Set(b.FAdd(acc.Get(), b.FMul(b.Load(ir.F64, b.Index(off, im1)), b.Load(ir.F64, b.Index(x, im1)))))
			}, nil)
			b.If(b.ICmp(ir.SLT, i, b.ConstI(n-1)), func() {
				acc.Set(b.FAdd(acc.Get(), b.FMul(b.Load(ir.F64, b.Index(off, i)), b.Load(ir.F64, b.Index(x, b.Add(i, b.ConstI(1)))))))
			}, nil)
			b.Store(acc.Get(), b.Index(y, i))
		})
		b.Ret(nil)
	}

	// dot(a, b).
	b.NewFunc("dot", ir.F64, ir.Ptr, ir.Ptr)
	{
		acc := b.NewVar(ir.F64, b.ConstF(0))
		b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
			acc.Set(b.FAdd(acc.Get(), b.FMul(b.Load(ir.F64, b.Index(b.Param(0), i)), b.Load(ir.F64, b.Index(b.Param(1), i)))))
		})
		b.Ret(acc.Get())
	}

	b.NewFunc("main", ir.I64)
	{
		b.Call("assemble")
		u, r, p, ap := b.GlobalAddr("u"), b.GlobalAddr("r"), b.GlobalAddr("p"), b.GlobalAddr("ap")
		rhs := b.GlobalAddr("rhs")
		b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
			b.Store(b.ConstF(0), b.Index(u, i))
			v := b.Load(ir.F64, b.Index(rhs, i))
			b.Store(v, b.Index(r, i))
			b.Store(v, b.Index(p, i))
		})
		rr := b.NewVar(ir.F64, b.Call("dot", r, r))
		b.Loop(b.ConstI(0), b.ConstI(10), b.ConstI(1), func(_ *ir.Value) {
			b.Call("matvec", ap, p)
			alpha := b.FDiv(rr.Get(), b.Call("dot", p, ap))
			b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
				b.Store(b.FAdd(b.Load(ir.F64, b.Index(u, i)), b.FMul(alpha, b.Load(ir.F64, b.Index(p, i)))), b.Index(u, i))
				b.Store(b.FSub(b.Load(ir.F64, b.Index(r, i)), b.FMul(alpha, b.Load(ir.F64, b.Index(ap, i)))), b.Index(r, i))
			})
			rrN := b.Call("dot", r, r)
			beta := b.FDiv(rrN, rr.Get())
			rr.Set(rrN)
			b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
				b.Store(b.FAdd(b.Load(ir.F64, b.Index(r, i)), b.FMul(beta, b.Load(ir.F64, b.Index(p, i)))), b.Index(p, i))
			})
		})
		b.Call("out_f64", rr.Get())
		emitChecksum(b, u, n)
		b.Ret(b.ConstI(0))
	}
	return m
}
