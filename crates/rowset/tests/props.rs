//! Property-based tests: RowSet and IdList must agree with a model based on
//! `std::collections::BTreeSet`.

use farmer_support::check::prelude::*;
use rowset::{IdList, RowSet};
use std::collections::BTreeSet;

const CAP: usize = 257; // deliberately not a multiple of 64

fn ids() -> impl Strategy<Value = Vec<usize>> {
    collection::vec(0..CAP, 0..64)
}

fn model(v: &[usize]) -> BTreeSet<usize> {
    v.iter().copied().collect()
}

/// A random capacity — deliberately covering the word boundaries 63/64/65
/// and 127/128/129 — plus four id sets drawn from it.
#[allow(clippy::type_complexity)]
fn caps_and_sets() -> impl Strategy<Value = (usize, Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>)>
{
    select(vec![1usize, 7, 63, 64, 65, 127, 128, 129, CAP]).prop_flat_map(|cap| {
        (
            just(cap),
            collection::vec(0..cap, 0..64),
            collection::vec(0..cap, 0..64),
            collection::vec(0..cap, 0..64),
            collection::vec(0..cap, 0..64),
        )
    })
}

check! {
    #[test]
    fn rowset_roundtrip(v in ids()) {
        let s = RowSet::from_ids(CAP, v.iter().copied());
        let m = model(&v);
        prop_assert_eq!(s.to_vec(), m.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(s.len(), m.len());
        prop_assert_eq!(s.first(), m.iter().next().copied());
        prop_assert_eq!(s.last(), m.iter().next_back().copied());
    }

    #[test]
    fn rowset_algebra_matches_model(a in ids(), b in ids()) {
        let (sa, sb) = (RowSet::from_ids(CAP, a.iter().copied()), RowSet::from_ids(CAP, b.iter().copied()));
        let (ma, mb) = (model(&a), model(&b));
        prop_assert_eq!(sa.intersection(&sb).to_vec(), ma.intersection(&mb).copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.union(&sb).to_vec(), ma.union(&mb).copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.difference(&sb).to_vec(), ma.difference(&mb).copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.intersection_len(&sb), ma.intersection(&mb).count());
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb));
    }

    #[test]
    fn rowset_laws(a in ids(), b in ids(), c in ids()) {
        let sa = RowSet::from_ids(CAP, a.iter().copied());
        let sb = RowSet::from_ids(CAP, b.iter().copied());
        let sc = RowSet::from_ids(CAP, c.iter().copied());
        // commutativity
        prop_assert_eq!(sa.intersection(&sb), sb.intersection(&sa));
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        // associativity
        prop_assert_eq!(sa.intersection(&sb).intersection(&sc), sa.intersection(&sb.intersection(&sc)));
        // distributivity
        prop_assert_eq!(
            sa.intersection(&sb.union(&sc)),
            sa.intersection(&sb).union(&sa.intersection(&sc))
        );
        // De Morgan via the full set
        let full = RowSet::full(CAP);
        let not = |s: &RowSet| full.difference(s);
        prop_assert_eq!(not(&sa.union(&sb)), not(&sa).intersection(&not(&sb)));
    }

    #[test]
    fn idlist_matches_model(a in ids(), b in ids()) {
        let la = IdList::from_iter(a.iter().map(|&x| x as u32));
        let lb = IdList::from_iter(b.iter().map(|&x| x as u32));
        let ma: BTreeSet<u32> = a.iter().map(|&x| x as u32).collect();
        let mb: BTreeSet<u32> = b.iter().map(|&x| x as u32).collect();
        prop_assert_eq!(la.intersection(&lb).into_vec(), ma.intersection(&mb).copied().collect::<Vec<_>>());
        prop_assert_eq!(la.union(&lb).into_vec(), ma.union(&mb).copied().collect::<Vec<_>>());
        prop_assert_eq!(la.difference(&lb).into_vec(), ma.difference(&mb).copied().collect::<Vec<_>>());
        prop_assert_eq!(la.is_subset(&lb), ma.is_subset(&mb));
        prop_assert_eq!(la.intersection_len(&lb), ma.intersection(&mb).count());
    }

    #[test]
    fn rowset_idlist_agree(a in ids(), b in ids()) {
        let sa = RowSet::from_ids(CAP, a.iter().copied());
        let sb = RowSet::from_ids(CAP, b.iter().copied());
        let la = IdList::from_iter(a.iter().map(|&x| x as u32));
        let lb = IdList::from_iter(b.iter().map(|&x| x as u32));
        let as_list = |s: &RowSet| IdList::from_iter(s.iter().map(|x| x as u32));
        prop_assert_eq!(as_list(&sa.intersection(&sb)), la.intersection(&lb));
        prop_assert_eq!(as_list(&sa.union(&sb)), la.union(&lb));
        prop_assert_eq!(as_list(&sa.difference(&sb)), la.difference(&lb));
    }

    #[test]
    fn fused_scan_matches_naive_ops(g in caps_and_sets()) {
        let (cap, a, b, c, d) = g;
        // z/occur accumulators, tuple, e_p — all over the same random capacity
        let mut z = RowSet::from_ids(cap, a.iter().copied());
        let mut occur = RowSet::from_ids(cap, b.iter().copied());
        let tuple = RowSet::from_ids(cap, c.iter().copied());
        let e_p = RowSet::from_ids(cap, d.iter().copied());
        let want_z = z.intersection(&tuple);
        let want_occur = occur.union(&tuple);
        let want_count = tuple.intersection_len(&e_p);
        let got = RowSet::fused_scan(&mut z, &mut occur, tuple.words(), &e_p);
        prop_assert_eq!(&z, &want_z);
        prop_assert_eq!(&occur, &want_occur);
        prop_assert_eq!(got, want_count);
    }

    #[test]
    fn into_variants_match_allocating_ops(g in caps_and_sets()) {
        let (cap, a, b, dirty, _) = g;
        let sa = RowSet::from_ids(cap, a.iter().copied());
        let sb = RowSet::from_ids(cap, b.iter().copied());
        // out starts dirty: the kernels must fully overwrite it
        let mut out = RowSet::from_ids(cap, dirty.iter().copied());
        sa.intersection_into(&sb, &mut out);
        prop_assert_eq!(&out, &sa.intersection(&sb));
        sa.union_into(&sb, &mut out);
        prop_assert_eq!(&out, &sa.union(&sb));
        sa.difference_into(&sb, &mut out);
        prop_assert_eq!(&out, &sa.difference(&sb));
        out.copy_from(&sa);
        prop_assert_eq!(&out, &sa);
        out.make_full();
        prop_assert_eq!(&out, &RowSet::full(cap));
    }

    #[test]
    fn clear_through_keeps_strictly_larger_ids(g in caps_and_sets(), cut in 0..2 * CAP) {
        let (cap, a, _, _, _) = g;
        let mut s = RowSet::from_ids(cap, a.iter().copied());
        s.clear_through(cut);
        let want: Vec<usize> = model(&a).into_iter().filter(|&x| x > cut).collect();
        prop_assert_eq!(s.to_vec(), want);
    }

    #[test]
    fn words_round_trip_any_capacity(g in caps_and_sets()) {
        let (cap, a, _, _, _) = g;
        let s = RowSet::from_ids(cap, a.iter().copied());
        let back = RowSet::from_words(cap, s.words().to_vec()).unwrap();
        prop_assert_eq!(&back, &s);
        // the serialized form is canonical: equal sets, equal words
        let t = RowSet::from_ids(cap, model(&a));
        prop_assert_eq!(t.words(), s.words());
        // and a word with a bit past the capacity never deserializes
        if cap % 64 != 0 {
            let mut bad = s.words().to_vec();
            let last = bad.len() - 1;
            bad[last] |= 1u64 << (cap % 64);
            prop_assert!(RowSet::from_words(cap, bad).is_err());
        }
    }

    #[test]
    fn insert_remove_consistent(v in ids(), x in 0..CAP) {
        let mut s = RowSet::from_ids(CAP, v.iter().copied());
        let before = s.contains(x);
        prop_assert_eq!(s.insert(x), !before);
        prop_assert!(s.contains(x));
        prop_assert!(s.remove(x));
        prop_assert!(!s.contains(x));
        prop_assert!(!s.remove(x));
    }

    /// `runs()` must partition the sorted id sequence into maximal
    /// consecutive blocks — same answer as the obvious per-id scan.
    #[test]
    fn runs_match_naive_grouping(caps in caps_and_sets()) {
        let (cap, v, _, _, _) = caps;
        let s = RowSet::from_ids(cap, v.iter().copied());
        let mut naive: Vec<(usize, usize)> = Vec::new();
        for id in s.iter() {
            match naive.last_mut() {
                Some((start, len)) if *start + *len == id => *len += 1,
                _ => naive.push((id, 1)),
            }
        }
        prop_assert_eq!(s.runs().collect::<Vec<_>>(), naive);
    }
}
