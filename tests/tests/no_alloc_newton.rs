//! Proves the sparse solver's steady-state loop is allocation-free.
//!
//! A counting global allocator wraps the system allocator; everything
//! runs in one `#[test]` so no concurrent test pollutes the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use ulp_bench::netlists::builder_netlists;
use ulp_device::Technology;
use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};
use ulp_spice::mna::{AssembleMode, Integrator, MnaWorkspace, SolverKind};
use ulp_spice::netlist::Element;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation count of `f`, minimised over a few repetitions: harness
/// threads (output capture, slow-test timers) allocate sporadically, and
/// any such interleaving only ever inflates a sample.
fn alloc_count(mut f: impl FnMut()) -> usize {
    (0..5)
        .map(|_| {
            let before = allocs();
            f();
            allocs() - before
        })
        .min()
        .expect("non-empty sample set")
}

#[test]
fn warm_sparse_workspace_loop_does_not_allocate() {
    let tech = Technology::default();
    let netlists = builder_netlists(&tech);
    let (_, nl) = netlists
        .iter()
        .find(|(n, _)| n == "scl-buffer-1n")
        .expect("builder netlist set changed");

    // Part 1: the restamp → refactor → solve cycle on a warm workspace
    // performs zero heap allocations.
    let mut ws = MnaWorkspace::new(nl, SolverKind::Sparse);
    assert!(ws.is_sparse(), "scl buffer should resolve sparse");
    let x = vec![0.2; nl.unknown_count()];
    let mut out = Vec::with_capacity(nl.unknown_count());
    for _ in 0..3 {
        ws.assemble(nl, &tech, &x, AssembleMode::Dc, 1e-12);
        std::hint::black_box(ws.residual_inf(&x));
        ws.factor().expect("factor");
        ws.solve_into(&mut out).expect("solve");
    }
    let grew = alloc_count(|| {
        for _ in 0..256 {
            ws.assemble(nl, &tech, &x, AssembleMode::Dc, 1e-12);
            std::hint::black_box(ws.residual_inf(&x));
            ws.factor().expect("factor");
            ws.solve_into(&mut out).expect("solve");
        }
    });
    assert_eq!(grew, 0, "warm sparse loop allocated {grew} times");

    // Part 2: a full operating-point solve allocates a fixed amount of
    // setup regardless of how many Newton iterations it runs — i.e. the
    // iteration loop itself is allocation-free. A loose tolerance stops
    // in a handful of iterations; a tight one runs substantially more.
    let solve = |vtol: f64| {
        let opts = NewtonOptions {
            max_iter: 800,
            max_step: 0.05,
            vtol,
            solver: SolverKind::Sparse,
            ..NewtonOptions::default()
        };
        alloc_count(|| {
            let op = DcOperatingPoint::solve_with(nl, &tech, &opts).expect("dcop");
            std::hint::black_box(op);
        })
    };
    // Warm shared caches (ERC memoisation) outside the measurement.
    solve(1e-6);
    let loose = solve(1e-3);
    let tight = solve(1e-11);
    assert_eq!(
        loose, tight,
        "allocation count depends on iteration count (loose {loose}, tight {tight})"
    );

    // Part 3: a step-size change replays the static program into the
    // value snapshot without allocating. The adaptive controller changes
    // dt on nearly every accepted step, so dt alternates on every
    // assemble here.
    let n_caps = nl
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::Capacitor { .. }))
        .count();
    assert!(n_caps > 0, "the transient part needs capacitor stamps");
    let caps = vec![0.0; n_caps];
    let tran = |dt: f64| AssembleMode::Transient {
        time: 1e-6,
        dt,
        prev: &x,
        cap_currents: &caps,
        method: Integrator::Trapezoidal,
    };
    let step = |ws: &mut MnaWorkspace, dt: f64, out: &mut Vec<f64>| {
        ws.assemble(nl, &tech, &x, tran(dt), 1e-12);
        ws.factor().expect("factor");
        ws.solve_into(out).expect("solve");
    };
    for dt in [1e-9, 1.3e-9, 1e-9] {
        step(&mut ws, dt, &mut out);
    }
    let grew = alloc_count(|| {
        for k in 0..256 {
            step(&mut ws, if k % 2 == 0 { 1e-9 } else { 1.3e-9 }, &mut out);
        }
    });
    assert_eq!(grew, 0, "step-size changes allocated {grew} times");
}
