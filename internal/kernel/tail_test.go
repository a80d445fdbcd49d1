package kernel

import (
	"math/rand"
	"testing"
)

// Ragged-tail tests. A driver evaluates the last, partial tile of a run by
// replicating its last real target into the empty lanes and storing only
// the real lanes (core.TargetTile). That is correct only if every lane
// computes its own target independently of what the other lanes hold, so
// a target's bits are the same in lane 0 of a padded tail as anywhere in a
// full tile. The tests here pin that for every built-in kernel and for the
// generic adapters, in the installed and the pure-Go dispatch. Their names
// are those of the per-target block tests the padded tile replaced: a
// one-target tail is the tile form of a one-target block.

// padTile64 loads the n real targets [lo, lo+n) of x, y, z into a tile as
// the drivers do, replicating the last real target into lanes n and up.
func padTile64(x, y, z []float64, lo, n int) (tx, ty, tz [TileWidth]float64) {
	for l := range tx {
		i := lo + min(l, n-1)
		tx[l], ty[l], tz[l] = x[i], y[i], z[i]
	}
	return
}

// padTile32 is padTile64 for fp32 tiles.
func padTile32(x, y, z []float32, lo, n int) (tx, ty, tz [TileWidth]float32) {
	for l := range tx {
		i := lo + min(l, n-1)
		tx[l], ty[l], tz[l] = x[i], y[i], z[i]
	}
	return
}

// forEachAsmMode runs f with the installed kernel loops and, where this
// machine has assembly loops, once more through the pure-Go fallbacks.
func forEachAsmMode(f func(mode string)) {
	f("installed")
	if AsmKernelsAvailable() {
		prev := SetAsmKernels(false)
		defer SetAsmKernels(prev)
		f("pure-go")
	}
}

// foreignF32 hides a kernel's native tile methods, leaving only F32Kernel,
// so AsF32Tile has to wrap it.
type foreignF32 struct {
	F32Kernel
}

// TestBlockKernelBitIdentical checks one-target tails for every built-in
// kernel. Each of a full tile's targets is evaluated again alone, padded
// across all lanes. Every lane of the padded tile must reproduce that
// target's bits from the full tile, and the real lane must match the
// scalar k.Eval loop under the kernel's TileMaxULP contract (exact for
// every kernel in the pure-Go dispatch, and for the kernel.Func adapter
// in both).
func TestBlockKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range tileTestKernels() {
		t.Run(k.Name(), func(t *testing.T) {
			adapter := AsTile(Func{KernelName: k.Name() + "-func", F: k.Eval})
			forEachAsmMode(func(mode string) {
				tk := AsTile(k)
				maxULP := TileMaxULP(k)
				for trial := 0; trial < 20; trial++ {
					n := 1 + rng.Intn(200)
					tx, ty, tz := tileTestTargets(rng)
					sx, sy, sz, q := tileTestSources(rng, n, tx[0], ty[0], tz[0])
					var full [TileWidth]float64
					tk.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &full)
					for i := 0; i < TileWidth; i++ {
						px, py, pz := padTile64(tx[:], ty[:], tz[:], i, 1)
						var got [TileWidth]float64
						tk.EvalTileAccum(&px, &py, &pz, sx, sy, sz, q, &got)
						for l, v := range got {
							if v != full[i] {
								t.Fatalf("%s n=%d: target %d alone, lane %d = %v; in the full tile %v",
									mode, n, i, l, v, full[i])
							}
						}
						want := []float64{scalarAccum(k, tx[i], ty[i], tz[i], sx, sy, sz, q)}
						abs := []float64{scalarAccumAbs(k, tx[i], ty[i], tz[i], sx, sy, sz, q)}
						checkTilePhi(t, mode+" one-target tile", n, maxULP, got[:1], want, abs)
						var ad [TileWidth]float64
						adapter.EvalTileAccum(&px, &py, &pz, sx, sy, sz, q, &ad)
						checkTilePhi(t, mode+" one-target adapter", n, 0, ad[:1], want, abs)
					}
				}
			})
		})
	}
}

// TestF32BlockKernelBitIdentical is the fp32 analogue for the built-in
// kernels that implement F32Kernel, held to F32TileMaxULP.
func TestF32BlockKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, k := range tileTestKernels() {
		f32, ok := k.(F32Kernel)
		if !ok {
			continue
		}
		t.Run(k.Name(), func(t *testing.T) {
			adapter := AsF32Tile(foreignF32{f32})
			forEachAsmMode(func(mode string) {
				tk := AsF32Tile(f32)
				maxULP := F32TileMaxULP(f32)
				for trial := 0; trial < 20; trial++ {
					n := 1 + rng.Intn(200)
					var tx, ty, tz [TileWidth]float32
					for i := range tx {
						tx[i] = float32(rng.Float64()*2 - 1)
						ty[i] = float32(rng.Float64()*2 - 1)
						tz[i] = float32(rng.Float64()*2 - 1)
					}
					sx, sy, sz, q := tileTestSources(rng, n, float64(tx[0]), float64(ty[0]), float64(tz[0]))
					var full [TileWidth]float32
					tk.EvalTileAccumF32(&tx, &ty, &tz, sx, sy, sz, q, &full)
					for i := 0; i < TileWidth; i++ {
						px, py, pz := padTile32(tx[:], ty[:], tz[:], i, 1)
						var got [TileWidth]float32
						tk.EvalTileAccumF32(&px, &py, &pz, sx, sy, sz, q, &got)
						for l, v := range got {
							if v != full[i] {
								t.Fatalf("%s n=%d: target %d alone, lane %d = %v; in the full tile %v",
									mode, n, i, l, v, full[i])
							}
						}
						want := []float32{scalarAccumF32(f32, tx[i], ty[i], tz[i], sx, sy, sz, q)}
						abs := []float32{scalarAccumAbsF32(f32, tx[i], ty[i], tz[i], sx, sy, sz, q)}
						checkTilePhiF32(t, mode+" one-target fp32 tile", n, maxULP, got[:1], want, abs)
						var ad [TileWidth]float32
						adapter.EvalTileAccumF32(&px, &py, &pz, sx, sy, sz, q, &ad)
						checkTilePhiF32(t, mode+" one-target fp32 adapter", n, 0, ad[:1], want, abs)
					}
				}
			})
		})
	}
}

// TestAsBlockResolution pins the fp32 dispatch rules, the counterpart of
// TestAsTileResolution: built-in F32 kernels resolve to themselves, other
// F32Kernels to the generic per-lane EvalF32 adapter, and resolving an
// adapter again is a no-op that keeps the kernel's name.
func TestAsBlockResolution(t *testing.T) {
	for _, k := range tileTestKernels() {
		f32, ok := k.(F32Kernel)
		if !ok {
			continue
		}
		if tk := AsF32Tile(f32); tk != f32 {
			t.Errorf("AsF32Tile(%s) wrapped a kernel that already implements F32TileKernel", k.Name())
		}
	}
	tk := AsF32Tile(foreignF32{Coulomb{}})
	if _, ok := tk.(f32TileAdapter); !ok {
		t.Fatalf("AsF32Tile(foreign kernel) = %T, want f32TileAdapter", tk)
	}
	if again, ok := AsF32Tile(tk).(f32TileAdapter); !ok {
		t.Errorf("AsF32Tile(AsF32Tile(k)) lost the adapter")
	} else if _, double := again.F32Kernel.(f32TileAdapter); double {
		t.Errorf("AsF32Tile(AsF32Tile(k)) double-wrapped the adapter")
	}
	if tk.Name() != (Coulomb{}).Name() {
		t.Errorf("adapter name = %q, want %q", tk.Name(), Coulomb{}.Name())
	}
}

// TestBlockKernelEmpty verifies that an empty source block leaves a padded
// one-target tile's accumulators unchanged, fp64 and fp32, for every
// built-in tile and adapter in both dispatch modes.
func TestBlockKernelEmpty(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3}
	x32 := []float32{0.1, 0.2, 0.3}
	forEachAsmMode(func(mode string) {
		for _, k := range tileTestKernels() {
			tiles := []TileKernel{AsTile(k), AsTile(Func{KernelName: "func", F: k.Eval})}
			for _, tk := range tiles {
				tx, ty, tz := padTile64(xs, xs, xs, 2, 1)
				phi := [TileWidth]float64{1, 2, 3, 4, 5, 6, 7, 8}
				tk.EvalTileAccum(&tx, &ty, &tz, nil, nil, nil, nil, &phi)
				if phi != [TileWidth]float64{1, 2, 3, 4, 5, 6, 7, 8} {
					t.Errorf("%s %s (%T): empty block changed phi to %v", mode, k.Name(), tk, phi)
				}
			}
			f32, ok := k.(F32Kernel)
			if !ok {
				continue
			}
			for _, tk := range []F32TileKernel{AsF32Tile(f32), AsF32Tile(foreignF32{f32})} {
				tx, ty, tz := padTile32(x32, x32, x32, 2, 1)
				phi := [TileWidth]float32{1, 2, 3, 4, 5, 6, 7, 8}
				tk.EvalTileAccumF32(&tx, &ty, &tz, nil, nil, nil, nil, &phi)
				if phi != [TileWidth]float32{1, 2, 3, 4, 5, 6, 7, 8} {
					t.Errorf("%s %s (%T): empty fp32 block changed phi to %v", mode, k.Name(), tk, phi)
				}
			}
		}
	})
}

// TestCoulombTile8BitIdentical walks runs of every length from 1 to
// 3*TileWidth+1 the way the drivers do — full tiles, then one padded tail
// — through Coulomb's installed 8-wide loop, seeding each tile from a
// nonzero phi and storing only the real lanes. Every target must equal
// the scalar reference bit for bit wherever it sits in the run, and phi
// past the run must stay untouched.
func TestCoulombTile8BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const maxRun = 3*TileWidth + 1
	forEachAsmMode(func(mode string) {
		tk := AsTile(Coulomb{})
		for m := 1; m <= maxRun; m++ {
			x := make([]float64, maxRun)
			y := make([]float64, maxRun)
			z := make([]float64, maxRun)
			phi := make([]float64, maxRun)
			for i := range x {
				x[i], y[i], z[i] = rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1
				phi[i] = rng.Float64()*2 - 1
			}
			n := 1 + rng.Intn(130)
			sx, sy, sz, q := tileTestSources(rng, n, x[m-1], y[m-1], z[m-1])
			want := append([]float64(nil), phi...)
			for i := 0; i < m; i++ {
				want[i] += scalarAccum(Coulomb{}, x[i], y[i], z[i], sx, sy, sz, q)
			}
			for lo := 0; lo < m; lo += TileWidth {
				nt := min(TileWidth, m-lo)
				tx, ty, tz := padTile64(x, y, z, lo, nt)
				var acc [TileWidth]float64
				copy(acc[:nt], phi[lo:lo+nt])
				tk.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &acc)
				copy(phi[lo:lo+nt], acc[:nt])
			}
			for i := range phi {
				if phi[i] != want[i] {
					t.Fatalf("%s run=%d n=%d: target %d = %v, want %v", mode, m, n, i, phi[i], want[i])
				}
			}
		}
	})
}
