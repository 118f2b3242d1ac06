//! A minimal property-testing harness with integrated shrinking.
//!
//! The shape follows proptest closely enough that the workspace's
//! property suites ported with `use`-line edits: strategies are
//! composable generators (`Range`s, [`collection::vec`],
//! [`collection::btree_set`], tuples, [`select`], `prop_map`,
//! `prop_flat_map`), the [`check!`](crate::check!) macro turns
//! `fn prop(x in strat) { .. }` items into `#[test]` functions, and a
//! failing case is greedily shrunk to a smaller counterexample before
//! reporting.
//!
//! Shrinking is *integrated* (the Hedgehog design): generating a value
//! produces a lazy rose [`Tree`] whose children are simpler variants,
//! so `prop_map`/`prop_flat_map` shrink through their closures for
//! free — there is no separate per-type shrinker to keep in sync with
//! the generator.
//!
//! Environment knobs:
//!
//! * `FARMER_CHECK_SEED` — replay a failure (decimal or `0x…` hex).
//! * `FARMER_CHECK_CASES` — override the per-property case budget.

use crate::rng::{Rng, SeedableRng, StdRng};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

/// Default seed: fixed so CI runs are reproducible without any
/// environment setup.
pub const DEFAULT_SEED: u64 = 0xFA12_3ED5_C0DE_0001;

/// Default number of cases per property (proptest's default).
pub const DEFAULT_CASES: u32 = 256;

// ---------------------------------------------------------------------------
// Rose trees
// ---------------------------------------------------------------------------

/// A lazily expanded rose tree: a generated value plus a thunk
/// producing simpler candidate values, ordered most-aggressive first.
pub struct Tree<T> {
    /// The generated (or shrunk-to) value.
    pub value: T,
    children: Rc<dyn Fn() -> Vec<Tree<T>>>,
}

impl<T: Clone + 'static> Clone for Tree<T> {
    fn clone(&self) -> Self {
        Tree {
            value: self.value.clone(),
            children: self.children.clone(),
        }
    }
}

impl<T: Clone + 'static> Tree<T> {
    /// A tree with no simpler variants.
    pub fn leaf(value: T) -> Self {
        Tree {
            value,
            children: Rc::new(Vec::new),
        }
    }

    /// A tree whose candidates are produced on demand by `children`.
    pub fn with_children(value: T, children: impl Fn() -> Vec<Tree<T>> + 'static) -> Self {
        Tree {
            value,
            children: Rc::new(children),
        }
    }

    /// Expands one level of candidates.
    pub fn children(&self) -> Vec<Tree<T>> {
        (self.children)()
    }

    /// Maps the whole tree through `f`, preserving shrink structure.
    pub fn map<U: Clone + 'static>(&self, f: MapFn<T, U>) -> Tree<U> {
        let value = f(&self.value);
        let kids = self.children.clone();
        let f2 = f.clone();
        Tree {
            value,
            children: Rc::new(move || kids().iter().map(|c| c.map(f2.clone())).collect()),
        }
    }
}

/// A shared mapping closure, as [`Tree::map`] takes it.
pub type MapFn<T, U> = Rc<dyn Fn(&T) -> U>;

/// Greedy shrink: repeatedly step to the first failing child until no
/// candidate fails or `max_steps` trial executions are spent. Returns
/// the minimal failing tree reached and the number of successful
/// shrink steps taken.
pub fn shrink_tree<T: Clone + 'static>(
    tree: Tree<T>,
    mut still_fails: impl FnMut(&T) -> bool,
    max_steps: u32,
) -> (Tree<T>, u32) {
    let mut current = tree;
    let mut spent = 0u32;
    let mut improved = 0u32;
    'outer: loop {
        for child in current.children() {
            if spent >= max_steps {
                break 'outer;
            }
            spent += 1;
            if still_fails(&child.value) {
                current = child;
                improved += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, improved)
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A composable generator of shrinkable values.
pub trait Strategy {
    /// The generated type.
    type Value: Clone + Debug + 'static;

    /// Generates one value together with its shrink candidates.
    fn tree(&self, rng: &mut StdRng) -> Tree<Self::Value>;

    /// Maps generated values through `f` (shrinks through it too).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + Debug + 'static,
        F: Fn(Self::Value) -> U + 'static,
    {
        Map {
            inner: self,
            f: Rc::new(f),
        }
    }

    /// Feeds generated values into a dependent strategy. Shrinking
    /// first simplifies the outer value (regenerating the inner one
    /// from a snapshotted stream), then the inner one.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy + 'static,
        F: Fn(Self::Value) -> S + 'static,
    {
        FlatMap {
            outer: self,
            f: Rc::new(f),
        }
    }
}

// ---- integers -------------------------------------------------------------

/// Shrink candidates between `origin` and `v`, most aggressive first.
macro_rules! int_towards {
    ($name:ident, $t:ty) => {
        fn $name(origin: $t, v: $t) -> Vec<$t> {
            if v == origin {
                return Vec::new();
            }
            let mut out = vec![origin];
            let mut diff = (v - origin) / 2;
            while diff > 0 {
                let c = v - diff;
                if c != origin {
                    out.push(c);
                }
                diff /= 2;
            }
            out
        }
    };
}

macro_rules! int_strategy {
    ($t:ty, $towards:ident) => {
        int_towards!($towards, $t);

        impl Strategy for Range<$t> {
            type Value = $t;
            fn tree(&self, rng: &mut StdRng) -> Tree<$t> {
                let v = rng.gen_range(self.clone());
                int_tree(v, self.start, $towards)
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn tree(&self, rng: &mut StdRng) -> Tree<$t> {
                let v = rng.gen_range(self.clone());
                int_tree(v, *self.start(), $towards)
            }
        }
    };
}

fn int_tree<T: Clone + Debug + 'static>(v: T, origin: T, towards: fn(T, T) -> Vec<T>) -> Tree<T> {
    let o = origin.clone();
    let val = v.clone();
    Tree::with_children(v, move || {
        towards(o.clone(), val.clone())
            .into_iter()
            .map(|c| int_tree(c, o.clone(), towards))
            .collect()
    })
}

int_strategy!(u8, towards_u8);
int_strategy!(u16, towards_u16);
int_strategy!(u32, towards_u32);
int_strategy!(u64, towards_u64);
int_strategy!(usize, towards_usize);
int_strategy!(i32, towards_i32);
int_strategy!(i64, towards_i64);

// ---- floats ---------------------------------------------------------------

impl Strategy for Range<f64> {
    type Value = f64;
    fn tree(&self, rng: &mut StdRng) -> Tree<f64> {
        let v = rng.gen_range(self.clone());
        f64_tree(v, self.start)
    }
}

fn f64_tree(v: f64, origin: f64) -> Tree<f64> {
    Tree::with_children(v, move || {
        let mut out = Vec::new();
        if v != origin {
            out.push(origin);
            // halve the distance a few times; also try the integral part
            let mut diff = (v - origin) / 2.0;
            for _ in 0..8 {
                let c = v - diff;
                if c != origin && c != v {
                    out.push(c);
                }
                diff /= 2.0;
            }
            let t = v.trunc();
            if t != v && t >= origin.min(v) {
                out.push(t);
            }
        }
        out.dedup();
        out.into_iter().map(|c| f64_tree(c, origin)).collect()
    })
}

// ---- map / flat_map -------------------------------------------------------

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: Rc<F>,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + Debug + 'static,
    F: Fn(S::Value) -> U + 'static,
{
    type Value = U;
    fn tree(&self, rng: &mut StdRng) -> Tree<U> {
        let f = self.f.clone();
        let g: MapFn<S::Value, U> = Rc::new(move |v| f(v.clone()));
        self.inner.tree(rng).map(g)
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    outer: S,
    f: Rc<F>,
}

impl<A, S, F> Strategy for FlatMap<A, F>
where
    A: Strategy,
    S: Strategy + 'static,
    F: Fn(A::Value) -> S + 'static,
{
    type Value = S::Value;
    fn tree(&self, rng: &mut StdRng) -> Tree<S::Value> {
        let outer = self.outer.tree(rng);
        // snapshot the stream so shrunk outer values regenerate their
        // inner value deterministically
        let snapshot = rng.clone();
        // advance the live stream past the inner generation
        let t = bind_tree(outer, self.f.clone(), snapshot);
        let _ = rng.next_u64();
        t
    }
}

fn bind_tree<A, S, F>(outer: Tree<A>, f: Rc<F>, rng: StdRng) -> Tree<S::Value>
where
    A: Clone + 'static,
    S: Strategy + 'static,
    F: Fn(A) -> S + 'static,
{
    let strat = f(outer.value.clone());
    let mut r = rng.clone();
    let inner = strat.tree(&mut r);
    let inner2 = inner.clone();
    let f2 = f.clone();
    Tree::with_children(inner.value.clone(), move || {
        let mut out: Vec<Tree<S::Value>> = outer
            .children()
            .into_iter()
            .map(|oc| bind_tree(oc, f2.clone(), rng.clone()))
            .collect();
        out.extend(inner2.children());
        out
    })
}

// ---- collections ----------------------------------------------------------

/// Element-count bounds for collection strategies (inclusive).
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Collection strategies (`vec`, `btree_set`).
pub mod collection {
    use super::*;

    /// A `Vec` of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// A `BTreeSet` of distinct `element` values; the generator aims
    /// for a cardinality drawn from `size` (dense element domains may
    /// saturate below the target).
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Strategy returned by [`collection::vec`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn tree(&self, rng: &mut StdRng) -> Tree<Vec<S::Value>> {
        let n = rng.gen_range(self.size.min..=self.size.max);
        let elems: Vec<Tree<S::Value>> = (0..n).map(|_| self.element.tree(rng)).collect();
        vec_tree(elems, self.size.min)
    }
}

fn vec_tree<T: Clone + 'static>(elems: Vec<Tree<T>>, min_len: usize) -> Tree<Vec<T>> {
    let value: Vec<T> = elems.iter().map(|e| e.value.clone()).collect();
    Tree::with_children(value, move || {
        let n = elems.len();
        let mut out = Vec::new();
        // remove aligned chunks, biggest first
        let mut k = n.saturating_sub(min_len);
        while k >= 1 {
            for start in (0..n).step_by(k) {
                if start + k > n {
                    break;
                }
                let mut rest = Vec::with_capacity(n - k);
                rest.extend(elems[..start].iter().cloned());
                rest.extend(elems[start + k..].iter().cloned());
                out.push(vec_tree(rest, min_len));
            }
            k /= 2;
        }
        // shrink one element in place
        for (i, e) in elems.iter().enumerate() {
            for c in e.children() {
                let mut next = elems.clone();
                next[i] = c;
                out.push(vec_tree(next, min_len));
            }
        }
        out
    })
}

/// Strategy returned by [`collection::btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn tree(&self, rng: &mut StdRng) -> Tree<BTreeSet<S::Value>> {
        let target = rng.gen_range(self.size.min..=self.size.max);
        let mut elems: Vec<Tree<S::Value>> = Vec::with_capacity(target);
        let mut seen: BTreeSet<S::Value> = BTreeSet::new();
        // bounded attempts: a dense element domain may not hold `target`
        // distinct values
        for _ in 0..(8 * target.max(1)) {
            if elems.len() == target {
                break;
            }
            let t = self.element.tree(rng);
            if seen.insert(t.value.clone()) {
                elems.push(t);
            }
        }
        set_tree(elems, self.size.min)
    }
}

fn set_tree<T: Clone + Ord + 'static>(elems: Vec<Tree<T>>, min_len: usize) -> Tree<BTreeSet<T>> {
    let value: BTreeSet<T> = elems.iter().map(|e| e.value.clone()).collect();
    Tree::with_children(value, move || {
        let n = elems.len();
        let mut out = Vec::new();
        let mut k = n.saturating_sub(min_len);
        while k >= 1 {
            for start in (0..n).step_by(k) {
                if start + k > n {
                    break;
                }
                let mut rest = Vec::with_capacity(n - k);
                rest.extend(elems[..start].iter().cloned());
                rest.extend(elems[start + k..].iter().cloned());
                out.push(set_tree(rest, min_len));
            }
            k /= 2;
        }
        for (i, e) in elems.iter().enumerate() {
            for c in e.children() {
                let mut next = elems.clone();
                next[i] = c;
                // element shrinks may collide; keep the candidate only
                // if the set still meets the minimum cardinality
                let distinct: BTreeSet<&T> = next.iter().map(|t| &t.value).collect();
                if distinct.len() >= min_len {
                    out.push(set_tree(next, min_len));
                }
            }
        }
        out
    })
}

// ---- tuples ---------------------------------------------------------------

/// Zips two trees: shrink candidates simplify one component at a
/// time, left component first. Larger tuple arities nest pairs and
/// flatten with [`Tree::map`].
fn pair_tree<A: Clone + 'static, B: Clone + 'static>(a: Tree<A>, b: Tree<B>) -> Tree<(A, B)> {
    let value = (a.value.clone(), b.value.clone());
    Tree::with_children(value, move || {
        let mut out = Vec::new();
        for ca in a.children() {
            out.push(pair_tree(ca, b.clone()));
        }
        for cb in b.children() {
            out.push(pair_tree(a.clone(), cb));
        }
        out
    })
}

impl<A: Strategy> Strategy for (A,) {
    type Value = (A::Value,);
    fn tree(&self, rng: &mut StdRng) -> Tree<Self::Value> {
        self.0.tree(rng).map(Rc::new(|v| (v.clone(),)))
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn tree(&self, rng: &mut StdRng) -> Tree<Self::Value> {
        pair_tree(self.0.tree(rng), self.1.tree(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn tree(&self, rng: &mut StdRng) -> Tree<Self::Value> {
        let ab = pair_tree(self.0.tree(rng), self.1.tree(rng));
        pair_tree(ab, self.2.tree(rng))
            .map(Rc::new(|((a, b), c)| (a.clone(), b.clone(), c.clone())))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn tree(&self, rng: &mut StdRng) -> Tree<Self::Value> {
        let ab = pair_tree(self.0.tree(rng), self.1.tree(rng));
        let abc = pair_tree(ab, self.2.tree(rng));
        pair_tree(abc, self.3.tree(rng)).map(Rc::new(|(((a, b), c), d)| {
            (a.clone(), b.clone(), c.clone(), d.clone())
        }))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy, E: Strategy> Strategy for (A, B, C, D, E) {
    type Value = (A::Value, B::Value, C::Value, D::Value, E::Value);
    fn tree(&self, rng: &mut StdRng) -> Tree<Self::Value> {
        let ab = pair_tree(self.0.tree(rng), self.1.tree(rng));
        let abc = pair_tree(ab, self.2.tree(rng));
        let abcd = pair_tree(abc, self.3.tree(rng));
        pair_tree(abcd, self.4.tree(rng)).map(Rc::new(|((((a, b), c), d), e)| {
            (a.clone(), b.clone(), c.clone(), d.clone(), e.clone())
        }))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy, E: Strategy, F: Strategy> Strategy
    for (A, B, C, D, E, F)
{
    type Value = (A::Value, B::Value, C::Value, D::Value, E::Value, F::Value);
    fn tree(&self, rng: &mut StdRng) -> Tree<Self::Value> {
        let ab = pair_tree(self.0.tree(rng), self.1.tree(rng));
        let abc = pair_tree(ab, self.2.tree(rng));
        let abcd = pair_tree(abc, self.3.tree(rng));
        let abcde = pair_tree(abcd, self.4.tree(rng));
        pair_tree(abcde, self.5.tree(rng)).map(Rc::new(|(((((a, b), c), d), e), f)| {
            (
                a.clone(),
                b.clone(),
                c.clone(),
                d.clone(),
                e.clone(),
                f.clone(),
            )
        }))
    }
}

// ---- select / just --------------------------------------------------------

/// One of the given choices, uniformly; shrinks toward the first.
pub fn select<T: Clone + Debug + 'static>(choices: Vec<T>) -> Select<T> {
    assert!(!choices.is_empty(), "select on empty choices");
    Select { choices }
}

/// Strategy returned by [`select`].
pub struct Select<T> {
    choices: Vec<T>,
}

impl<T: Clone + Debug + 'static> Strategy for Select<T> {
    type Value = T;
    fn tree(&self, rng: &mut StdRng) -> Tree<T> {
        let i = rng.gen_range(0..self.choices.len());
        let choices = self.choices.clone();
        int_tree(i, 0, towards_usize).map(Rc::new(move |&i| choices[i].clone()))
    }
}

/// Always the given value; never shrinks.
pub fn just<T: Clone + Debug + 'static>(value: T) -> Just<T> {
    Just { value }
}

/// Strategy returned by [`just`].
pub struct Just<T> {
    value: T,
}

impl<T: Clone + Debug + 'static> Strategy for Just<T> {
    type Value = T;
    fn tree(&self, _rng: &mut StdRng) -> Tree<T> {
        Tree::leaf(self.value.clone())
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Per-property execution budget.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Cap on trial executions while shrinking a failure.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: DEFAULT_CASES,
            max_shrink_steps: 4096,
        }
    }
}

impl Config {
    /// A config running `cases` cases (like
    /// `ProptestConfig::with_cases`).
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// Resolves the macro-level request (`0` = default) against the
    /// `FARMER_CHECK_CASES` environment override.
    pub fn resolve(requested: u32) -> Self {
        let mut cfg = if requested == 0 {
            Config::default()
        } else {
            Config::with_cases(requested)
        };
        if let Some(n) = env_u64("FARMER_CHECK_CASES") {
            cfg.cases = n as u32;
        }
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name} must be an integer (decimal or 0x-hex), got {raw:?}"),
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that suppresses reports
/// from threads currently executing property cases — shrinking
/// intentionally panics dozens of times.
fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn run_case<S, F>(test: &F, value: &S::Value) -> Option<String>
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| test(value.clone())));
    QUIET_PANICS.with(|q| q.set(false));
    match outcome {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => Some(payload_message(&payload)),
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `test` against `cfg.cases` generated values of `strategy`,
/// shrinking and reporting the first failure. This is the engine
/// behind the [`check!`](crate::check!) macro.
pub fn run<S, F>(name: &str, cfg: &Config, strategy: S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    install_quiet_hook();
    let seed = env_u64("FARMER_CHECK_SEED").unwrap_or(DEFAULT_SEED);
    for case in 0..cfg.cases {
        // decorrelate cases while keeping each a pure function of
        // (seed, case index)
        let mut stream = seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(splitmix64(&mut stream));
        let tree = strategy.tree(&mut rng);
        if let Some(first_msg) = run_case::<S, F>(&test, &tree.value) {
            let original = format!("{:?}", tree.value);
            let (minimal, steps) = shrink_tree(
                tree,
                |v| run_case::<S, F>(&test, v).is_some(),
                cfg.max_shrink_steps,
            );
            let final_msg = run_case::<S, F>(&test, &minimal.value).unwrap_or(first_msg);
            panic!(
                "property `{name}` failed at case {case_n}/{total}\n\
                 minimal input (after {steps} shrink steps): {min:?}\n\
                 original input: {orig}\n\
                 error: {msg}\n\
                 replay with FARMER_CHECK_SEED={seed:#x}",
                case_n = case + 1,
                total = cfg.cases,
                min = minimal.value,
                orig = original,
                msg = final_msg,
            );
        }
    }
}

use crate::rng::splitmix64;

/// Everything a property-test file needs.
pub mod prelude {
    pub use super::{collection, just, select, Config, Strategy};
    pub use crate::{check, prop_assert, prop_assert_eq, prop_assert_ne};
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests, proptest-style:
///
/// ```
/// farmer_support::check! {
///     #![config(cases = 64)]
///
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         farmer_support::prop_assert_eq!(a + b, b + a);
///     }
/// }
/// addition_commutes();
/// ```
///
/// Each item becomes a function, keeping its attributes (in test files,
/// `#[test]`), that runs [`check::run`](crate::check::run) over the
/// tuple of strategies. An optional leading `#![config(cases = N)]`
/// sets the case budget for every property in the block.
#[macro_export]
macro_rules! check {
    (#![config(cases = $n:expr)] $($rest:tt)*) => {
        $crate::__check_items! { cases = $n; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__check_items! { cases = 0; $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __check_items {
    (cases = $n:expr;) => {};
    (cases = $n:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $crate::check::Config::resolve($n);
            let strategy = ($($strat,)+);
            $crate::check::run(
                stringify!($name),
                &config,
                strategy,
                |($($arg,)+)| -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__check_items! { cases = $n; $($rest)* }
    };
}

/// `assert!` under a name property tests can keep from their proptest
/// days; failures are caught and shrunk by the harness.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// See [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// See [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn range_strategy_in_bounds() {
        let mut r = rng();
        for _ in 0..200 {
            let t = (3usize..8).tree(&mut r);
            assert!((3..8).contains(&t.value));
            for c in t.children() {
                assert!((3..8).contains(&c.value));
                assert!(c.value < t.value);
            }
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut r = rng();
        for _ in 0..100 {
            let t = collection::vec(0u32..10, 2..5).tree(&mut r);
            assert!((2..5).contains(&t.value.len()));
            for c in t.children() {
                assert!(c.value.len() >= 2, "{:?}", c.value);
            }
        }
    }

    #[test]
    fn btree_set_respects_min_size() {
        let mut r = rng();
        for _ in 0..100 {
            let t = collection::btree_set(0u32..30, 1..6).tree(&mut r);
            assert!(!t.value.is_empty() && t.value.len() < 6);
            for c in t.children() {
                assert!(!c.value.is_empty());
            }
        }
    }

    #[test]
    fn map_shrinks_through_closure() {
        let mut r = rng();
        let t = (0usize..100).prop_map(|n| vec![7u8; n]).tree(&mut r);
        let (minimal, _) = shrink_tree(t, |v| v.len() >= 3, 1000);
        assert_eq!(minimal.value, vec![7u8; 3]);
    }

    #[test]
    fn flat_map_shrinks_outer_and_inner() {
        let mut r = rng();
        // dependent pair: (len, vec of that len)
        let strat = (1usize..20).prop_flat_map(|n| collection::vec(0u32..100, n));
        for _ in 0..50 {
            let t = strat.tree(&mut r);
            // property: no element >= 10 — force a failure when possible
            if t.value.iter().any(|&x| x >= 10) {
                let (minimal, _) = shrink_tree(t, |v| v.iter().any(|&x| x >= 10), 4096);
                assert_eq!(minimal.value, vec![10], "minimal counterexample");
                return;
            }
        }
        panic!("expected at least one generated vec with an element >= 10");
    }

    #[test]
    fn select_shrinks_toward_first() {
        let mut r = rng();
        let t = select(vec!["a", "b", "c"]).tree(&mut r);
        for c in t.children() {
            assert_eq!(c.value, "a");
        }
    }

    #[test]
    fn runner_passes_trivial_property() {
        run("trivial", &Config::with_cases(64), 0u32..10, |v| {
            assert!(v < 10);
            Ok(())
        });
    }

    #[test]
    fn runner_reports_shrunk_counterexample() {
        let outcome = std::panic::catch_unwind(|| {
            run(
                "planted",
                &Config::with_cases(256),
                collection::vec(0usize..1000, 0..30),
                |v| {
                    assert!(v.iter().sum::<usize>() < 50, "sum too large");
                    Ok(())
                },
            );
        });
        let msg = payload_message(&*outcome.expect_err("property must fail"));
        assert!(msg.contains("property `planted` failed"), "{msg}");
        assert!(msg.contains("minimal input"), "{msg}");
        assert!(msg.contains("FARMER_CHECK_SEED"), "{msg}");
        // greedy shrinking must reach a one-element vector [50]
        assert!(msg.contains("[50]"), "not minimal: {msg}");
    }

    #[test]
    fn tuple_strategy_shrinks_componentwise() {
        let mut r = rng();
        let t = (0u32..100, 0u32..100).tree(&mut r);
        let (a0, b0) = t.value;
        for c in t.children() {
            let (a, b) = c.value;
            assert!((a < a0 && b == b0) || (a == a0 && b < b0) || (a0 == 0 && b0 == 0));
        }
    }
}
