//! A fit's trees as units of work, shared by its caller and one helper.
//!
//! A fit grows its forests tree by tree, and each tree's bootstrap comes
//! from one draw: the cross-validation's from one ChaCha8 stream per
//! training size (folds of equal size draw the same positions), the
//! final forest's from one stream over every sample. A draw feeds units:
//! a CV draw one per fold (sum the fold's drawn samples per key, then
//! grow every weight point's tree and sweep its predictions), a final
//! draw one (sum, grow, keep the tree). Units are numbered tree-major,
//! the CV's before the final forest's, and the caller and, while the
//! process's CPU budget has an idle core, one scoped helper take them
//! from one counter. Only the caller draws, into two position lists that
//! alternate, so it draws the next tree while units read the current one.
//!
//! Three rules keep every bit as one thread computes them (DESIGN.md
//! §4l "One helper per fit"): a CV unit adds its predictions to its
//! fold's sums only after the fold's unit for the previous tree has, so
//! every sum runs in tree order; a list is redrawn only after every unit
//! reading it has summed its draw; the final forest keeps its trees by
//! index and compiles them in index order. Every wait spins briefly, then
//! blocks.

use std::hint;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::forest::{draw_positions, RandomForest, RandomForestConfig};
use crate::stats::mse;
use crate::tree::{Grower, KeySums, RankedFeature, RegressionTree};

/// How long a wait spins before it blocks.
const SPIN: Duration = Duration::from_micros(50);

/// Whether a fit takes a helper thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Helper {
    /// When the process's CPU budget has an idle core; the helper
    /// leaves between units once the budget is over.
    Auto,
    /// Never.
    Off,
    /// Always.
    #[cfg(test)]
    On,
    /// Always, and the helper runs the first unit of each pass itself
    /// and holds it: the CV's after summing its draw, until the caller
    /// blocks (on the scores, while fold 0's later trees wait for it);
    /// the final forest's before, until the caller blocks on its position
    /// list. Needs three trees.
    #[cfg(test)]
    Hold,
}

/// What a run fits: k-fold cross-validation of every weight point's
/// feature, a final forest, or both.
pub(crate) struct Schedule<'a> {
    /// Each sample's key and target.
    keys: &'a [u32],
    ys: &'a [f64],
    /// Keys every feature ranks.
    num_keys: usize,
    config: RandomForestConfig,
    /// The CV's weight points (none without a CV) and folds: fold `f`
    /// tests on the samples `i` with `i % folds == f` and trains on the
    /// rest.
    features: &'a [RankedFeature],
    folds: usize,
    /// The distinct training sizes, and each fold's among them.
    sizes: Vec<usize>,
    size_of: Vec<usize>,
    last: Final<'a>,
}

/// The feature a schedule's final forest grows on.
#[derive(Clone, Copy)]
enum Final<'a> {
    /// No final forest.
    Without,
    /// A given feature.
    Given(&'a RankedFeature),
    /// The CV's best weight point.
    Best,
}

impl<'a> Schedule<'a> {
    /// One forest on `feature`, whose keys `keys` holds per sample.
    pub(crate) fn forest(
        feature: &'a RankedFeature,
        keys: &'a [u32],
        ys: &'a [f64],
        config: RandomForestConfig,
    ) -> Self {
        Schedule {
            keys,
            ys,
            num_keys: feature.num_keys(),
            config,
            features: &[],
            folds: 0,
            sizes: Vec::new(),
            size_of: Vec::new(),
            last: Final::Given(feature),
        }
    }

    /// `folds`-fold cross-validation of every feature, and with `last`
    /// the final forest on the best. Needs at least `folds` samples.
    pub(crate) fn cross_validation(
        features: &'a [RankedFeature],
        folds: usize,
        keys: &'a [u32],
        ys: &'a [f64],
        config: RandomForestConfig,
        last: bool,
    ) -> Self {
        let mut sizes = Vec::new();
        let size_of = (0..folds)
            .map(|fold| {
                let m = train_size(ys.len(), folds, fold);
                sizes.iter().position(|&s| s == m).unwrap_or_else(|| {
                    sizes.push(m);
                    sizes.len() - 1
                })
            })
            .collect();
        Schedule {
            keys,
            ys,
            num_keys: features[0].num_keys(),
            config,
            features,
            folds,
            sizes,
            size_of,
            last: if last { Final::Best } else { Final::Without },
        }
    }
}

/// The number of samples fold `fold` of `folds` trains on.
fn train_size(samples: usize, folds: usize, fold: usize) -> usize {
    samples - (samples - fold).div_ceil(folds)
}

/// What a run fitted.
pub(crate) struct Outcome {
    /// Every weight point's CV MSE, in grid order (empty without a CV).
    pub(crate) scores: Vec<f64>,
    /// The final forest, if the schedule has one.
    pub(crate) forest: Option<RandomForest>,
    /// The waits that blocked, in order.
    #[cfg(test)]
    pub(crate) blocked: Vec<Wait>,
}

/// The first weight point with the lowest CV MSE.
pub(crate) fn best_point(scores: &[f64]) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (point, &score) in scores.iter().enumerate() {
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((point, score));
        }
    }
    best.expect("weight grid is non-empty").0
}

/// Runs `schedule` on the calling thread and, as `helper` says, one
/// scoped helper, joined before it returns.
pub(crate) fn run(schedule: &Schedule<'_>, helper: Helper) -> Outcome {
    let run = Run::new(schedule);
    #[cfg(test)]
    let run = Run {
        hold: helper == Helper::Hold,
        ..run
    };
    let caller = || {
        let _failing = Failing(&run);
        run.caller(&mut Worker::default());
    };
    let helper_unit = |stay: &mut dyn FnMut() -> bool| {
        let _failing = Failing(&run);
        run.helper(&mut Worker::default(), stay);
    };
    match helper {
        Helper::Off => caller(),
        Helper::Auto => {
            // The caller keeps its unit of the budget, and the helper
            // runs on an idle one if there is one.
            let _unit = youtiao_exec::hold();
            let leases = youtiao_exec::lease(1);
            let helper = |lease: &mut youtiao_exec::Lease| helper_unit(&mut || lease.stay());
            thread::scope(|scope| {
                leases.spawn(scope, &helper);
                caller();
            });
        }
        #[cfg(test)]
        Helper::On | Helper::Hold => thread::scope(|scope| {
            scope.spawn(|| helper_unit(&mut || true));
            caller();
        }),
    }
    run.finish()
}

/// What a wait waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Draw `d` published.
    Drawn(usize),
    /// Draw `d`'s list free: every unit of draw `d − 2` has summed it.
    Free(usize),
    /// Every weight point's CV MSE.
    Scores,
}

/// One thread's buffers.
#[derive(Default)]
struct Worker {
    sums: KeySums,
    grower: Grower,
    /// Per weight point and distinct value, one CV tree's predictions.
    preds: Vec<Vec<f64>>,
    /// Hold the next unit ([`Helper::Hold`]).
    #[cfg(test)]
    hold: bool,
}

/// The caller's bootstrap streams: one per CV training size, one for the
/// final forest.
struct Streams {
    cv: Vec<ChaCha8Rng>,
    last: ChaCha8Rng,
}

/// Sets [`Run::failed`] if its thread unwinds, so the other thread's
/// waits end.
struct Failing<'r, 'a>(&'r Run<'r, 'a>);

impl Drop for Failing<'_, '_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.failed.store(true, Ordering::SeqCst);
            self.0.notify();
        }
    }
}

/// The state a run's threads share. `drawn`, `summed` and `folds_done`
/// are stored with `Release` after the change they announce and loaded
/// with `Acquire` (the lists and folds sit behind locks besides); `next`
/// publishes nothing and is `Relaxed`.
struct Run<'s, 'a> {
    s: &'s Schedule<'a>,
    /// Units and draws: the CV's, then the final forest's.
    cv_units: usize,
    units: usize,
    cv_draws: usize,
    draws: usize,
    /// The next unit to take.
    next: AtomicUsize,
    /// Draws published.
    drawn: AtomicUsize,
    /// Draw `d`'s positions, one list per training size, in list `d % 2`,
    /// and the units that have summed each list since it was drawn.
    lists: [RwLock<Vec<Vec<u32>>>; 2],
    summed: [AtomicUsize; 2],
    /// Each fold's training samples, in ascending order, until the CV
    /// is scored.
    trains: RwLock<Vec<Vec<u32>>>,
    /// Each fold's predictions.
    folds: Vec<Mutex<FoldSums>>,
    /// Folds whose every tree is in.
    folds_done: AtomicUsize,
    /// Every weight point's CV MSE, set by the last fold done.
    scores: OnceLock<Vec<f64>>,
    /// The final forest's trees.
    grown: Vec<OnceLock<RegressionTree>>,
    /// A thread panicked.
    failed: AtomicBool,
    /// Blocked waits sleep on `wake` under `lock`; `sleepers` counts them.
    lock: Mutex<()>,
    wake: Condvar,
    sleepers: AtomicUsize,
    #[cfg(test)]
    hold: bool,
    #[cfg(test)]
    blocked: Mutex<Vec<Wait>>,
}

/// One fold's predictions: summed in tree order, whichever thread grew
/// each tree.
#[derive(Clone)]
struct FoldSums {
    /// Trees added to `sums`.
    trees: usize,
    /// Per weight point and distinct value, the trees' predictions
    /// summed in tree order from −0.0, as `Iterator::sum` sums a forest's
    /// trees.
    sums: Vec<Vec<f64>>,
    /// Later trees' predictions, with their trees, until the trees
    /// before them are in.
    waiting: Vec<(usize, Vec<Vec<f64>>)>,
    /// Per weight point, the fold's test MSE, once every tree is in.
    mse: Vec<f64>,
}

/// Adds `preds` to `sums`, value by value.
fn add(sums: &mut [Vec<f64>], preds: &[Vec<f64>]) {
    for (sums, preds) in sums.iter_mut().zip(preds) {
        for (sum, pred) in sums.iter_mut().zip(preds) {
            *sum += pred;
        }
    }
}

/// Why a lock on a run's data fails: a thread panicked holding it, and
/// that panic ends the fit.
const POISONED: &str = "a fit thread panicked holding the fit's state";

impl<'s, 'a> Run<'s, 'a> {
    fn new(s: &'s Schedule<'a>) -> Self {
        let trees = s.config.num_trees;
        let cv_draws = if s.folds == 0 { 0 } else { trees };
        let last_draws = if let Final::Without = s.last {
            0
        } else {
            trees
        };
        let sums: Vec<Vec<f64>> = s
            .features
            .iter()
            .map(|feature| vec![-0.0; feature.values().len()])
            .collect();
        let fold = FoldSums {
            trees: 0,
            sums,
            waiting: Vec::new(),
            mse: Vec::new(),
        };
        Run {
            s,
            cv_units: cv_draws * s.folds,
            units: cv_draws * s.folds + last_draws,
            cv_draws,
            draws: cv_draws + last_draws,
            next: AtomicUsize::new(0),
            drawn: AtomicUsize::new(0),
            lists: [(); 2].map(|()| RwLock::new(vec![Vec::new(); s.sizes.len().max(1)])),
            summed: Default::default(),
            trains: RwLock::new(
                (0..s.folds)
                    .map(|fold| {
                        let mut train = Vec::with_capacity(train_size(s.ys.len(), s.folds, fold));
                        train.extend(
                            (0..s.ys.len() as u32).filter(|&i| i as usize % s.folds != fold),
                        );
                        train
                    })
                    .collect(),
            ),
            folds: (0..s.folds).map(|_| Mutex::new(fold.clone())).collect(),
            folds_done: AtomicUsize::new(0),
            scores: OnceLock::new(),
            grown: (0..last_draws).map(|_| OnceLock::new()).collect(),
            failed: AtomicBool::new(false),
            lock: Mutex::new(()),
            wake: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            #[cfg(test)]
            hold: false,
            #[cfg(test)]
            blocked: Mutex::new(Vec::new()),
        }
    }

    /// The draw unit `u` reads.
    fn draw_of(&self, u: usize) -> usize {
        if u < self.cv_units {
            u / self.s.folds
        } else {
            self.cv_draws + (u - self.cv_units)
        }
    }

    /// The units reading draw `d`.
    fn readers(&self, d: usize) -> usize {
        if d < self.cv_draws {
            self.s.folds
        } else {
            1
        }
    }

    /// Takes the next unit, if any is left.
    fn take(&self) -> Option<usize> {
        let u = self.next.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        if self.held(u) {
            return self.take();
        }
        (u < self.units).then_some(u)
    }

    /// The caller: draws every tree, and takes units until none is left.
    fn caller(&self, worker: &mut Worker) {
        let seeded = || ChaCha8Rng::seed_from_u64(self.s.config.seed);
        let mut streams = Streams {
            cv: self.s.sizes.iter().map(|_| seeded()).collect(),
            last: seeded(),
        };
        let mut drawn = 0;
        let mut draw = |drawn: &mut usize| {
            self.draw(&mut streams, *drawn);
            *drawn += 1;
        };
        loop {
            while drawn < self.draws && self.ready(Wait::Free(drawn)) {
                draw(&mut drawn);
            }
            let Some(u) = self.take() else { break };
            while drawn <= self.draw_of(u) {
                self.wait(Wait::Free(drawn));
                draw(&mut drawn);
            }
            self.unit(u, worker);
        }
        // The helper's last units may read draws not made yet.
        while drawn < self.draws {
            self.wait(Wait::Free(drawn));
            draw(&mut drawn);
        }
    }

    /// The helper: takes units while `stay` holds and any is left.
    fn helper(&self, worker: &mut Worker, stay: &mut dyn FnMut() -> bool) {
        #[cfg(test)]
        if self.hold {
            return self.held_helper(worker);
        }
        while stay() {
            let Some(u) = self.take() else { break };
            self.unit(u, worker);
        }
    }

    /// Draws draw `d` into its list and publishes it.
    fn draw(&self, streams: &mut Streams, d: usize) {
        let mut lists = self.lists[d % 2].write().expect(POISONED);
        if d < self.cv_draws {
            for ((rng, &m), list) in streams.cv.iter_mut().zip(&self.s.sizes).zip(&mut *lists) {
                draw_positions(rng, m, list);
            }
        } else {
            draw_positions(&mut streams.last, self.s.keys.len(), &mut lists[0]);
        }
        self.summed[d % 2].store(0, Ordering::Relaxed);
        drop(lists);
        self.drawn.store(d + 1, Ordering::Release);
        self.notify();
    }

    /// Runs unit `u`: sums its draw per key, then grows.
    fn unit(&self, u: usize, worker: &mut Worker) {
        let d = self.draw_of(u);
        self.wait(Wait::Drawn(d));
        #[cfg(test)]
        if u >= self.cv_units {
            let list = Wait::Free(self.cv_draws + 2);
            self.hold(worker, |blocked| *blocked == list);
        }
        let (s, num_keys) = (self.s, self.s.num_keys);
        {
            let lists = self.lists[d % 2].read().expect(POISONED);
            if u < self.cv_units {
                let fold = u % s.folds;
                let train = &self.trains.read().expect(POISONED)[fold];
                let positions = &lists[s.size_of[fold]];
                worker.sums.refill(
                    num_keys,
                    positions.iter().map(|&p| {
                        let i = train[p as usize] as usize;
                        (s.keys[i], s.ys[i])
                    }),
                );
            } else {
                let positions = &lists[0];
                worker.sums.refill(
                    num_keys,
                    positions
                        .iter()
                        .map(|&p| (s.keys[p as usize], s.ys[p as usize])),
                );
            }
        }
        self.summed[d % 2].fetch_add(1, Ordering::Release);
        self.notify();
        if u < self.cv_units {
            self.cross_validate(u / s.folds, u % s.folds, worker);
        } else {
            self.keep_tree(u - self.cv_units, worker);
        }
    }

    /// Grows every weight point's tree of (`tree`, `fold`), then adds its
    /// predictions to the fold's sums after the fold's previous tree: at
    /// once if that tree is in, else by the thread that adds it. The
    /// thread adding a fold's last tree scores the fold, and the one
    /// scoring the last fold scores every weight point.
    fn cross_validate(&self, tree: usize, fold: usize, worker: &mut Worker) {
        let s = self.s;
        worker.preds.resize_with(s.features.len(), Vec::new);
        for (feature, preds) in s.features.iter().zip(&mut worker.preds) {
            // −0.0 plus a prediction is the prediction, bit for bit.
            preds.clear();
            preds.resize(feature.values().len(), -0.0);
            worker
                .grower
                .grow(feature, &worker.sums, s.config.tree)
                .add_predictions(feature.values(), preds);
        }
        #[cfg(test)]
        self.hold(worker, |blocked| *blocked == Wait::Scores);
        let mut state = self.folds[fold].lock().expect(POISONED);
        if state.trees < tree {
            // The thread adding the fold's previous tree adds these too.
            state
                .waiting
                .push((tree, std::mem::take(&mut worker.preds)));
            return;
        }
        add(&mut state.sums, &worker.preds);
        state.trees += 1;
        while let Some(at) = state.waiting.iter().position(|&(t, _)| t == state.trees) {
            let (_, preds) = state.waiting.swap_remove(at);
            add(&mut state.sums, &preds);
            state.trees += 1;
        }
        if state.trees < s.config.num_trees {
            return;
        }
        state.mse = self.fold_mse(fold, &state.sums);
        state.sums = Vec::new();
        drop(state);
        if self.folds_done.fetch_add(1, Ordering::AcqRel) + 1 == s.folds {
            let scores = self.score();
            self.scores.set(scores).expect("the last fold scores once");
            self.notify();
        }
    }

    /// Every weight point's test MSE on `fold`, from its trees' summed
    /// predictions.
    fn fold_mse(&self, fold: usize, sums: &[Vec<f64>]) -> Vec<f64> {
        let s = self.s;
        let trees = s.config.num_trees as f64;
        s.features
            .iter()
            .zip(sums)
            .map(|(feature, sums)| {
                let (preds, test_y): (Vec<f64>, Vec<f64>) = (fold..s.ys.len())
                    .step_by(s.folds)
                    .map(|i| (sums[feature.rank(s.keys[i])] / trees, s.ys[i]))
                    .unzip();
                mse(&preds, &test_y)
            })
            .collect()
    }

    /// Every weight point's CV MSE: the folds' MSEs summed in fold order.
    /// Frees the training lists, which no unit reads again.
    fn score(&self) -> Vec<f64> {
        let s = self.s;
        drop(std::mem::take(&mut *self.trains.write().expect(POISONED)));
        let folds: Vec<Vec<f64>> = self
            .folds
            .iter()
            .map(|fold| std::mem::take(&mut fold.lock().expect(POISONED).mse))
            .collect();
        (0..s.features.len())
            .map(|point| {
                let mut total = 0.0;
                for mse in &folds {
                    total += mse[point];
                }
                (total / s.folds as f64).max(0.0)
            })
            .collect()
    }

    /// Grows final tree `k` on the final feature.
    fn keep_tree(&self, k: usize, worker: &mut Worker) {
        let feature = if let Final::Given(feature) = self.s.last {
            feature
        } else {
            self.wait(Wait::Scores);
            let scores = self.scores.get().expect("the last CV unit scored");
            &self.s.features[best_point(scores)]
        };
        let tree = worker
            .grower
            .grow(feature, &worker.sums, self.s.config.tree);
        self.grown[k]
            .set(tree.clone())
            .expect("each tree grows once");
    }

    fn ready(&self, wait: Wait) -> bool {
        match wait {
            Wait::Drawn(d) => self.drawn.load(Ordering::Acquire) > d,
            Wait::Free(d) => {
                d < 2 || self.summed[d % 2].load(Ordering::Acquire) == self.readers(d - 2)
            }
            Wait::Scores => self.scores.get().is_some(),
        }
    }

    /// Returns once `wait` is ready: spins for [`SPIN`], then blocks.
    ///
    /// # Panics
    ///
    /// Panics if the run's other thread panicked.
    fn wait(&self, wait: Wait) {
        if self.ready(wait) {
            return;
        }
        let start = Instant::now();
        while start.elapsed() < SPIN {
            for _ in 0..64 {
                hint::spin_loop();
            }
            self.check();
            if self.ready(wait) {
                return;
            }
        }
        #[cfg(test)]
        {
            let _guard = self.sleep_lock();
            self.blocked.lock().expect(POISONED).push(wait);
            self.wake.notify_all();
        }
        self.sleep(|| self.ready(wait));
    }

    /// Blocks until `ready` holds or the other thread panics.
    fn sleep(&self, ready: impl Fn() -> bool) {
        let mut guard = self.sleep_lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // Pairs with the fence in `notify`: either this check sees the
        // change, or `notify` sees the sleeper and wakes it.
        fence(Ordering::SeqCst);
        while !ready() && !self.failed.load(Ordering::SeqCst) {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        drop(guard);
        self.check();
    }

    /// The lock blocked waits sleep under. It guards no data, so a
    /// poisoned one serves as well, and `Failing` takes it while
    /// unwinding, where a panic would abort.
    fn sleep_lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn check(&self) {
        assert!(
            !self.failed.load(Ordering::Relaxed),
            "the fit's other thread panicked"
        );
    }

    /// Wakes every blocked wait, after a change a wait may be for.
    fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            drop(self.sleep_lock());
            self.wake.notify_all();
        }
    }

    /// The scores and the final forest, its trees compiled in index
    /// order.
    fn finish(self) -> Outcome {
        let forest = (!self.grown.is_empty()).then(|| {
            let trees: Vec<RegressionTree> = self
                .grown
                .into_iter()
                .map(|tree| tree.into_inner().expect("every tree grew"))
                .collect();
            RandomForest::compile(&trees)
        });
        Outcome {
            scores: self.scores.into_inner().unwrap_or_default(),
            forest,
            #[cfg(test)]
            blocked: self.blocked.into_inner().expect(POISONED),
        }
    }
}

#[cfg(test)]
impl Run<'_, '_> {
    /// Whether `u` is the first unit of its pass, which a held run
    /// leaves to the helper.
    fn held(&self, u: usize) -> bool {
        self.hold
            && ((u == 0 && self.cv_units > 0) || (u == self.cv_units && self.units > self.cv_units))
    }

    /// A held run's helper: it runs each pass's first unit, holding it,
    /// and takes units as usual between.
    fn held_helper(&self, worker: &mut Worker) {
        assert!(self.s.config.num_trees >= 3, "a held fit needs three trees");
        if self.cv_units > 0 {
            worker.hold = true;
            self.unit(0, worker);
        }
        let mut last = (self.units > self.cv_units).then_some(self.cv_units);
        loop {
            let u = self.take();
            if u.is_none_or(|u| u >= self.cv_units) {
                if let Some(first) = last.take() {
                    worker.hold = true;
                    self.unit(first, worker);
                }
            }
            let Some(u) = u else { break };
            self.unit(u, worker);
        }
    }

    /// Holds the unit running now until a wait `release` accepts has
    /// blocked.
    fn hold(&self, worker: &mut Worker, release: impl Fn(&Wait) -> bool) {
        if std::mem::take(&mut worker.hold) {
            self.sleep(|| self.blocked.lock().expect(POISONED).iter().any(&release));
        }
    }
}
