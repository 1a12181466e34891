//! The counting allocator is process-wide, so its exactness test is the
//! only test in this binary: nothing else allocates while it counts.

use flowzip_benchmark::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_a_known_vec_growth_exactly() {
    let before = alloc::calls();
    let warm: Vec<u8> = Vec::with_capacity(64);
    assert_eq!(alloc::calls(), before, "counting is off until asked for");
    drop(warm);

    let (v, calls) = alloc::count(|| {
        let mut v: Vec<u64> = Vec::new();
        for i in 0..17 {
            v.push(i);
        }
        v
    });
    assert_eq!(v.len(), 17);
    // Vec<u64> grows 4 → 8 → 16 → 32 slots: one alloc, three reallocs.
    assert_eq!(calls, 4);
}
