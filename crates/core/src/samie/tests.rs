//! Unit tests for the SAMIE-LSQ placement, forwarding, promotion,
//! invalidation and accounting rules.

use super::*;
use crate::types::PlaceOutcome;

/// A tiny configuration that is easy to fill: 2 banks × 1 entry × 2 slots,
/// 1 SharedLSQ entry, 2 AddrBuffer slots.
fn tiny() -> SamieLsq {
    SamieLsq::new(SamieConfig {
        banks: 2,
        entries_per_bank: 1,
        slots_per_entry: 2,
        shared_entries: 1,
        abuf_slots: 2,
    })
}

/// Address helpers: with 32-byte lines and 2 banks, line(addr) selects
/// bank (addr >> 5) & 1. `bank0_line(k)` gives the k-th distinct line
/// mapping to bank 0.
fn bank0_line(k: u64) -> u64 {
    k * 2 * 32
}

fn bank1_line(k: u64) -> u64 {
    k * 2 * 32 + 32
}

fn dispatch_and_place(l: &mut SamieLsq, age: Age, is_store: bool, addr: u64) -> PlaceOutcome {
    l.dispatch(SamieLsq::mem_op(age, is_store, addr, 4));
    l.address_ready(age)
}

#[test]
fn same_line_ops_share_an_entry() {
    let mut l = SamieLsq::paper();
    assert_eq!(
        dispatch_and_place(&mut l, 1, true, 0x1000),
        PlaceOutcome::Placed
    );
    assert_eq!(
        dispatch_and_place(&mut l, 2, false, 0x1004),
        PlaceOutcome::Placed
    );
    assert_eq!(
        dispatch_and_place(&mut l, 3, false, 0x1008),
        PlaceOutcome::Placed
    );
    let occ = l.occupancy();
    assert_eq!(occ.dist_entries, 1, "one line, one entry");
    assert_eq!(occ.dist_slots, 3);
}

#[test]
fn different_lines_same_bank_use_second_entry_then_shared() {
    let mut l = tiny();
    assert_eq!(
        dispatch_and_place(&mut l, 1, false, bank0_line(0)),
        PlaceOutcome::Placed
    );
    assert!(l.is_in_dist(1));
    // Second distinct line in bank 0: bank has 1 entry -> SharedLSQ.
    assert_eq!(
        dispatch_and_place(&mut l, 2, false, bank0_line(1)),
        PlaceOutcome::Placed
    );
    assert!(l.is_in_shared(2));
    // Third distinct line in bank 0: shared full -> AddrBuffer.
    assert_eq!(
        dispatch_and_place(&mut l, 3, false, bank0_line(2)),
        PlaceOutcome::Buffered
    );
    assert!(l.is_buffered(3));
    // Fourth: AddrBuffer has one more slot.
    assert_eq!(
        dispatch_and_place(&mut l, 4, false, bank0_line(3)),
        PlaceOutcome::Buffered
    );
    // Fifth: nothing left.
    assert_eq!(
        dispatch_and_place(&mut l, 5, false, bank0_line(4)),
        PlaceOutcome::NoSpace
    );
}

#[test]
fn full_entry_overflows_to_second_entry_same_line() {
    // 1 bank entry x 2 slots; third op to the SAME line must open a new
    // entry (here: the shared one) even though the line matches (§3.2).
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    dispatch_and_place(&mut l, 2, false, bank0_line(0) + 4);
    assert_eq!(
        dispatch_and_place(&mut l, 3, false, bank0_line(0) + 8),
        PlaceOutcome::Placed
    );
    assert!(l.is_in_shared(3));
    assert_eq!(l.entry_line_of(3), l.entry_line_of(1));
}

#[test]
fn banks_are_independent() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    assert_eq!(
        dispatch_and_place(&mut l, 2, false, bank1_line(0)),
        PlaceOutcome::Placed
    );
    assert!(l.is_in_dist(2));
    assert_eq!(l.occupancy().dist_entries, 2);
}

#[test]
fn forwarding_within_entry() {
    let mut l = SamieLsq::paper();
    dispatch_and_place(&mut l, 1, true, 0x2000);
    dispatch_and_place(&mut l, 2, false, 0x2000);
    // Store data not ready yet.
    assert_eq!(l.load_forward_status(2), ForwardStatus::Wait);
    l.store_executed(1);
    assert_eq!(
        l.load_forward_status(2),
        ForwardStatus::Forward { store: 1 }
    );
}

#[test]
fn forwarding_across_dist_and_shared_same_line() {
    // Store fills the bank entry completely; load for the same line lands
    // in the SharedLSQ but must still see the store.
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, true, bank0_line(0));
    dispatch_and_place(&mut l, 2, false, bank0_line(0) + 8); // fills entry
    dispatch_and_place(&mut l, 3, false, bank0_line(0)); // -> shared
    assert!(l.is_in_shared(3));
    l.store_executed(1);
    assert_eq!(
        l.load_forward_status(3),
        ForwardStatus::Forward { store: 1 }
    );
}

#[test]
fn forwarding_picks_youngest_older_store() {
    let mut l = SamieLsq::paper();
    dispatch_and_place(&mut l, 1, true, 0x3000);
    dispatch_and_place(&mut l, 2, true, 0x3000);
    dispatch_and_place(&mut l, 3, false, 0x3000);
    l.store_executed(1);
    l.store_executed(2);
    assert_eq!(
        l.load_forward_status(3),
        ForwardStatus::Forward { store: 2 }
    );
}

#[test]
fn partial_overlap_waits_until_store_commits() {
    let mut l = SamieLsq::paper();
    l.dispatch(SamieLsq::mem_op(1, true, 0x4000, 4));
    l.address_ready(1);
    l.dispatch(SamieLsq::mem_op(2, false, 0x4002, 4));
    l.address_ready(2);
    l.store_executed(1);
    assert_eq!(l.load_forward_status(2), ForwardStatus::Wait);
    l.commit(1);
    assert_eq!(l.load_forward_status(2), ForwardStatus::AccessCache);
}

#[test]
fn older_buffered_store_blocks_overlapping_load() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0)); // dist bank 0
    dispatch_and_place(&mut l, 2, false, bank0_line(1)); // shared
                                                         // Older store (age 4) to a third bank-0 line gets buffered.
    assert_eq!(
        dispatch_and_place(&mut l, 4, true, bank0_line(2)),
        PlaceOutcome::Buffered
    );
    // Free the bank entry so younger ops can place (no tick: the store
    // stays buffered).
    l.commit(1);
    // A younger load overlapping the buffered store must wait...
    dispatch_and_place(&mut l, 5, false, bank0_line(2));
    assert!(l.is_in_dist(5));
    assert_eq!(l.load_forward_status(5), ForwardStatus::Wait);
    // ...but a younger load to different bytes of the same line proceeds.
    dispatch_and_place(&mut l, 6, false, bank0_line(2) + 8);
    assert_eq!(l.load_forward_status(6), ForwardStatus::AccessCache);
    // Loads older than the buffered store are unaffected.
    assert_eq!(l.load_forward_status(2), ForwardStatus::AccessCache);
}

#[test]
fn addrbuffer_promotes_fifo_with_priority() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    dispatch_and_place(&mut l, 2, false, bank0_line(1)); // shared
    dispatch_and_place(&mut l, 3, false, bank0_line(2)); // buffered
    dispatch_and_place(&mut l, 4, false, bank0_line(3)); // buffered
    let mut promoted = vec![];
    l.tick(&mut promoted);
    assert!(promoted.is_empty(), "nothing freed yet");
    // Commit the load in the bank entry; head of the AddrBuffer (3) can
    // now take the freed entry, but 4 still has nowhere to go.
    l.commit(1);
    l.tick(&mut promoted);
    assert_eq!(promoted, vec![3]);
    assert!(l.is_in_dist(3));
    assert!(l.is_buffered(4));
}

#[test]
fn scan_promotion_skips_blocked_older_op() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0)); // dist bank 0
    dispatch_and_place(&mut l, 2, false, bank1_line(0)); // dist bank 1
    dispatch_and_place(&mut l, 3, false, bank0_line(1)); // shared
    dispatch_and_place(&mut l, 4, false, bank0_line(2)); // buffered
    dispatch_and_place(&mut l, 5, false, bank1_line(1)); // buffered
                                                         // Free bank 1: op 4 (older) is still bound to the full bank 0, but
                                                         // the scan lets op 5 take the freed bank-1 entry.
    l.commit(2);
    let mut promoted = vec![];
    l.tick(&mut promoted);
    assert_eq!(promoted, vec![5]);
    assert!(l.is_buffered(4) && !l.is_buffered(5));
}

#[test]
fn buffered_store_datum_written_at_promotion() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    dispatch_and_place(&mut l, 2, false, bank0_line(1));
    dispatch_and_place(&mut l, 3, true, bank0_line(2)); // buffered store
    l.store_executed(3); // datum produced while buffered
    l.commit(1);
    let mut promoted = vec![];
    l.tick(&mut promoted);
    assert_eq!(promoted, vec![3]);
    // The promoted store can forward immediately.
    dispatch_and_place(&mut l, 5, false, bank0_line(2));
    assert_eq!(
        l.load_forward_status(5),
        ForwardStatus::Forward { store: 3 }
    );
}

#[test]
fn cache_plan_lifecycle() {
    let mut l = SamieLsq::paper();
    dispatch_and_place(&mut l, 1, false, 0x5000);
    dispatch_and_place(&mut l, 2, false, 0x5008);
    // First access: nothing cached.
    assert_eq!(l.cache_access_plan(1), CachePlan::default());
    // Conventional access happened at set 3, way 1: entry caches it.
    assert!(l.note_cache_access(1, 3, 1));
    // Second op in the same entry gets a way-known plan.
    let plan = l.cache_access_plan(2);
    assert_eq!(plan.location, Some((3, 1)));
    assert!(plan.translation);
    // A second note does not re-cache.
    assert!(!l.note_cache_access(2, 3, 1));
}

#[test]
fn line_replacement_invalidates_location_not_translation() {
    let mut l = SamieLsq::paper();
    dispatch_and_place(&mut l, 1, false, 0x5000);
    l.note_cache_access(1, 3, 1);
    dispatch_and_place(&mut l, 2, false, 0x5008);
    // Replacement of a different location: untouched.
    l.on_line_replaced(7, 0);
    l.on_line_replaced(3, 0); // same set, different way
    assert_eq!(l.cache_access_plan(2).location, Some((3, 1)));
    // Replacement of the cached location: dropped, translation kept.
    l.on_line_replaced(3, 1);
    let plan = l.cache_access_plan(2);
    assert_eq!(plan.location, None);
    assert!(
        plan.translation,
        "the D-TLB translation survives replacement"
    );
    // A fresh conventional access re-caches the (new) location.
    assert!(l.note_cache_access(2, 3, 2));
    assert_eq!(l.entry_cached_loc(2), Some((3, 2)));
}

#[test]
fn commit_frees_slots_then_entry() {
    let mut l = SamieLsq::paper();
    dispatch_and_place(&mut l, 1, false, 0x6000);
    dispatch_and_place(&mut l, 2, true, 0x6004);
    l.store_executed(2);
    l.commit(1);
    assert_eq!(l.occupancy().dist_slots, 1);
    assert_eq!(l.occupancy().dist_entries, 1);
    l.commit(2);
    assert_eq!(l.occupancy().dist_slots, 0);
    assert_eq!(l.occupancy().dist_entries, 0);
}

#[test]
#[should_panic(expected = "only placed ops can commit")]
fn committing_a_buffered_op_panics() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    dispatch_and_place(&mut l, 2, false, bank0_line(1));
    dispatch_and_place(&mut l, 3, false, bank0_line(2)); // buffered
    l.commit(3);
}

#[test]
fn squash_younger_clears_everywhere() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    dispatch_and_place(&mut l, 2, false, bank0_line(1)); // shared
    dispatch_and_place(&mut l, 3, false, bank0_line(2)); // buffered
    l.dispatch(SamieLsq::mem_op(4, false, bank1_line(0), 4)); // dispatched only
    l.squash_younger(1);
    let occ = l.occupancy();
    assert_eq!(occ.dist_slots, 1);
    assert_eq!(occ.shared_slots, 0);
    assert_eq!(occ.addr_buffer, 0);
    // Squashed ages are gone entirely.
    assert!(!l.is_buffered(3));
    assert_eq!(l.entry_line_of(2), None);
}

#[test]
fn flush_all_resets_everything() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    dispatch_and_place(&mut l, 2, false, bank0_line(1));
    dispatch_and_place(&mut l, 3, false, bank0_line(2));
    l.flush_all();
    assert_eq!(l.occupancy(), LsqOccupancy::default());
}

#[test]
fn placement_search_activity_counts_bank_and_shared() {
    let mut l = SamieLsq::paper();
    dispatch_and_place(&mut l, 1, false, 0x1000);
    // Second op, same bank: compares against 1 bank entry (1 slot in it),
    // 0 shared entries.
    dispatch_and_place(&mut l, 2, false, 0x1004);
    let a = l.activity();
    assert_eq!(a.bus_sends, 2);
    // The first placement searched an empty bank (no match lines fired,
    // nothing charged); the second compared against one resident entry.
    assert_eq!(a.dist_addr.cmp_ops, 1);
    assert_eq!(a.dist_addr.cmp_operands, 1);
    assert_eq!(a.dist_age.cmp_ops, 1, "one in-use entry was age-searched");
    assert_eq!(a.dist_age.cmp_operands, 1);
    assert_eq!(
        a.shared_addr.cmp_ops, 0,
        "empty SharedLSQ is never searched"
    );
    // One entry allocation = one line-address write; two age-id writes.
    assert_eq!(a.dist_addr.reads_writes, 1);
    assert_eq!(a.dist_age_rw, 2);
}

#[test]
fn unbounded_shared_grows_and_histograms() {
    let mut l = SamieLsq::new(SamieConfig::sizing_study(2, 1));
    // Two distinct lines per bank beyond capacity: everything extra goes
    // to the shared structure, which must grow, never buffer.
    for k in 0..10 {
        assert_eq!(
            dispatch_and_place(&mut l, k + 1, false, bank0_line(k)),
            PlaceOutcome::Placed
        );
    }
    assert_eq!(l.occupancy().shared_entries, 9);
    let mut p = vec![];
    l.tick(&mut p);
    assert_eq!(l.shared_histogram()[9], 1);
    assert_eq!(l.shared_entries_for_quantile(0.99), 9);
}

#[test]
fn shared_quantile_statistic() {
    let mut l = SamieLsq::new(SamieConfig::sizing_study(2, 1));
    let mut p = vec![];
    // 99 cycles empty, 1 cycle with 3 shared entries.
    for _ in 0..99 {
        l.tick(&mut p);
    }
    for k in 0..4u64 {
        dispatch_and_place(&mut l, k + 1, false, bank0_line(k));
    }
    l.tick(&mut p);
    assert_eq!(l.shared_entries_for_quantile(0.99), 0);
    assert_eq!(l.shared_entries_for_quantile(1.0), 3);
}

#[test]
fn occupancy_integrals_accumulate() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    dispatch_and_place(&mut l, 2, false, bank0_line(1)); // shared
    let mut p = vec![];
    l.tick(&mut p);
    l.tick(&mut p);
    let occ = l.activity().occupancy;
    assert_eq!(occ.cycles, 2);
    assert_eq!(occ.dist_entries, 2);
    assert_eq!(occ.dist_slots, 2);
    assert_eq!(occ.shared_entries, 2);
    assert!((occ.mean_shared_entries() - 1.0).abs() < 1e-12);
}

#[test]
fn abuf_activity_counts_insert_and_drain() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    dispatch_and_place(&mut l, 2, false, bank0_line(1));
    dispatch_and_place(&mut l, 3, false, bank0_line(2)); // buffered: +1 rw each
    assert_eq!(l.activity().abuf_data_rw, 1);
    assert_eq!(l.activity().abuf_age_rw, 1);
    assert_eq!(l.activity().abuf_inserts, 1);
    l.commit(1);
    let mut p = vec![];
    l.tick(&mut p); // promotion: +1 rw each
    assert_eq!(l.activity().abuf_data_rw, 2);
    assert_eq!(l.activity().abuf_age_rw, 2);
}

#[test]
fn dispatch_never_gates() {
    let l = SamieLsq::paper();
    assert!(l.can_dispatch(true));
    assert!(l.can_dispatch(false));
}

#[test]
fn store_commit_reads_datum() {
    let mut l = SamieLsq::paper();
    dispatch_and_place(&mut l, 1, true, 0x1000);
    l.store_executed(1); // +1 write
    let before = l.activity().dist_data_rw;
    l.commit(1); // +1 read
    assert_eq!(l.activity().dist_data_rw, before + 1);
}

#[test]
fn refuse_idle_equals_refused_address_ready_calls() {
    let mut l = tiny();
    // Bank 0's entry (two slots), the SharedLSQ entry and both AddrBuffer
    // slots are taken, so a fourth line in bank 0 has nowhere to go.
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    dispatch_and_place(&mut l, 2, true, bank0_line(0) + 8);
    dispatch_and_place(&mut l, 3, false, bank0_line(1));
    assert_eq!(
        dispatch_and_place(&mut l, 4, false, bank0_line(2)),
        PlaceOutcome::Buffered
    );
    assert_eq!(
        dispatch_and_place(&mut l, 5, true, bank0_line(3)),
        PlaceOutcome::Buffered
    );
    assert_eq!(
        dispatch_and_place(&mut l, 6, false, bank0_line(4)),
        PlaceOutcome::NoSpace
    );

    let before = *l.activity();
    let mut stepped = l.clone();
    for _ in 0..23 {
        assert_eq!(stepped.address_ready(6), PlaceOutcome::NoSpace);
    }
    l.refuse_idle(6, 23);
    assert_eq!(l.activity(), stepped.activity());
    assert_eq!(l.occupancy(), stepped.occupancy());

    // Every ledger a refusal touches was charged.
    let a = l.activity();
    assert_eq!(a.bus_sends - before.bus_sends, 23);
    for (name, now, then) in [
        ("dist_addr", a.dist_addr, before.dist_addr),
        ("dist_age", a.dist_age, before.dist_age),
        ("shared_addr", a.shared_addr, before.shared_addr),
        ("shared_age", a.shared_age, before.shared_age),
    ] {
        assert_eq!(now.cmp_ops - then.cmp_ops, 23, "{name}");
        assert!(now.cmp_operands > then.cmp_operands, "{name}");
    }
    assert_eq!(
        a.dist_age.cmp_operands - before.dist_age.cmp_operands,
        23 * 2
    );
}

#[test]
fn tick_idle_equals_idle_ticks() {
    let mut l = tiny();
    dispatch_and_place(&mut l, 1, false, bank0_line(0));
    dispatch_and_place(&mut l, 2, false, bank0_line(1));
    dispatch_and_place(&mut l, 3, false, bank0_line(2)); // buffered
    let mut p = vec![];
    l.tick(&mut p);
    assert!(p.is_empty());
    let mut stepped = l.clone();
    for _ in 0..17 {
        stepped.tick(&mut p);
    }
    assert!(p.is_empty());
    l.tick_idle(17);
    assert_eq!(l.activity(), stepped.activity());
    assert_eq!(l.shared_histogram(), stepped.shared_histogram());
}
