//! Chunked (vectorized) element transport — the stream protocol.
//!
//! Moving one element per virtual call costs hundreds of millions of
//! dynamic dispatches for one GOES frame of 20 840 × 10 820 points, so
//! [`GeoStream::next_chunk`] is the one pull every stream implements.
//! It returns a [`ChunkOrMarker`]: either a [`Chunk`], a **contiguous
//! run of points from a single frame**, or a standalone marker.
//!
//! The chunk contract (DESIGN.md §12):
//!
//! * A chunk's `points` never cross a framing marker: every point in one
//!   chunk belongs to the same frame of the same sector.
//! * A run holds at least one and at most `budget` points.
//! * The marker that *cut the run short* rides along in [`Chunk::end`]:
//!   a marker rides on a run only when the run holds fewer than `budget`
//!   points. `end == None` means the budget was exhausted (or the stream
//!   ended) and the next item continues.
//! * A marker with no preceding points is delivered standalone as
//!   [`ChunkOrMarker::Marker`].
//! * Flattening an item (points first, then its trailing marker) gives
//!   the element sequence; it is the same at every budget. The budget
//!   rule makes a budget-1 pull exactly one element, which is all
//!   [`GeoStream::next_element`] is.
//! * Point buffers come from a thread-local pool keyed by the pixel
//!   type; call [`Chunk::recycle`] (or [`ChunkOrMarker::recycle`]) when
//!   done so steady-state execution allocates nothing.
//! * An operator reads whole input runs (`next_chunk`, or
//!   [`ChunkInput`], which stages one chunk at a time and serves it as a
//!   run the consumer takes a prefix of, or element by element) and
//!   queues whole output runs in a [`RunQueue`], as chaos injection,
//!   stream repair and archive replay do. Only the `split2` and `tee2`
//!   sides, whose transports are element sequences, pack their output
//!   one element at a time with [`pack_elements`].

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, OnceLock};

use geostreams_raster::Pixel;

use super::element::{Element, FrameEnd, FrameInfo, PointRecord, SectorEnd, SectorInfo};
use super::stream::GeoStream;

/// Default point budget per [`GeoStream::next_chunk`] pull — large enough
/// to amortize dispatch and timing, small enough to stay cache-resident.
pub const DEFAULT_CHUNK_BUDGET: usize = 1024;

/// A framing marker: any non-point [`Element`]. Markers carry no pixel
/// value, so they pass unchanged through value-type-converting operators.
#[derive(Debug, Clone, PartialEq)]
pub enum Marker {
    /// Opens a scan sector.
    SectorStart(SectorInfo),
    /// Opens a frame within the current sector.
    FrameStart(FrameInfo),
    /// Closes the current frame.
    FrameEnd(FrameEnd),
    /// Closes the current sector.
    SectorEnd(SectorEnd),
}

impl Marker {
    /// Rewraps the marker as a scalar element of any value type.
    pub fn into_element<V>(self) -> Element<V> {
        match self {
            Marker::SectorStart(si) => Element::SectorStart(si),
            Marker::FrameStart(fi) => Element::FrameStart(fi),
            Marker::FrameEnd(fe) => Element::FrameEnd(fe),
            Marker::SectorEnd(se) => Element::SectorEnd(se),
        }
    }

    /// Splits an element into marker or point record.
    pub fn from_element<V>(el: Element<V>) -> Result<Marker, PointRecord<V>> {
        match el {
            Element::Point(p) => Err(p),
            Element::SectorStart(si) => Ok(Marker::SectorStart(si)),
            Element::FrameStart(fi) => Ok(Marker::FrameStart(fi)),
            Element::FrameEnd(fe) => Ok(Marker::FrameEnd(fe)),
            Element::SectorEnd(se) => Ok(Marker::SectorEnd(se)),
        }
    }
}

/// How many pooled buffers to retain per pixel type per worker thread
/// (bounds idle memory).
pub(crate) const POOL_MAX_VECS: usize = 64;

/// How many buffers the process-wide shared pool retains per pixel type
/// (overflow from and hand-off between worker threads).
pub(crate) const SHARED_POOL_MAX_VECS: usize = 256;

/// The shared tier of the chunk pool: a process-wide, mutex-guarded
/// stack of type-erased buffers per pixel type. Every entry is a
/// `Box<Vec<PointRecord<V>>>` for the `V` it is keyed under, so the
/// downcast in [`shared_take`] always succeeds. Sound to share because
/// `Pixel: Send`.
struct SharedPool {
    slots: HashMap<TypeId, Vec<Box<dyn Any + Send>>>,
}

fn shared_pool() -> MutexGuard<'static, SharedPool> {
    static POOL: OnceLock<Mutex<SharedPool>> = OnceLock::new();
    let m = POOL.get_or_init(|| Mutex::new(SharedPool { slots: HashMap::new() }));
    // A poisoned pool only means another thread panicked mid-push; the
    // buffer stacks themselves are always in a consistent state.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Pops one buffer for `V` from the shared pool, if any.
fn shared_take<V: Pixel>() -> Option<Vec<PointRecord<V>>> {
    let mut pool = shared_pool();
    let slot = pool.slots.get_mut(&TypeId::of::<V>())?;
    let boxed = slot.pop()?;
    boxed.downcast::<Vec<PointRecord<V>>>().ok().map(|b| *b)
}

/// Pushes one cleared buffer for `V` into the shared pool (dropping it
/// if the shared tier is full).
fn shared_put<V: Pixel>(v: Vec<PointRecord<V>>) {
    let mut pool = shared_pool();
    let slot = pool.slots.entry(TypeId::of::<V>()).or_default();
    if slot.len() < SHARED_POOL_MAX_VECS {
        slot.push(Box::new(v));
    }
}

/// The thread-local tier: per-type stacks with a [`Drop`] impl that
/// migrates every retained buffer to the shared pool when the thread
/// exits. Before this existed, a worker thread's pooled buffers were
/// stranded (freed but never reusable) at thread exit; now recycle
/// accounting is conserved across thread lifetimes — see
/// `pool_conserves_buffers_across_thread_exit`.
struct LocalPool {
    slots: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl Drop for LocalPool {
    fn drop(&mut self) {
        let mut pool = shared_pool();
        for (ty, boxed) in self.slots.drain() {
            if let Ok(stack) = boxed.downcast::<Vec<Box<dyn Any + Send>>>() {
                let slot = pool.slots.entry(ty).or_default();
                for buf in *stack {
                    if slot.len() >= SHARED_POOL_MAX_VECS {
                        break;
                    }
                    slot.push(buf);
                }
            }
        }
    }
}

thread_local! {
    /// Per-thread buffer pool, keyed by pixel `TypeId` (sound because
    /// `Pixel: 'static`). Each slot holds a `Vec<Box<dyn Any + Send>>`
    /// of individually boxed buffers so the whole stack can migrate to
    /// the shared pool at thread exit without knowing `V`.
    static CHUNK_POOL: RefCell<LocalPool> = RefCell::new(LocalPool { slots: HashMap::new() });
}

fn local_slot(pool: &mut LocalPool, ty: TypeId) -> Option<&mut Vec<Box<dyn Any + Send>>> {
    pool.slots
        .entry(ty)
        .or_insert_with(|| Box::new(Vec::<Box<dyn Any + Send>>::new()) as Box<dyn Any + Send>)
        .downcast_mut::<Vec<Box<dyn Any + Send>>>()
}

/// Takes a cleared point buffer from the pool (or allocates one).
/// Fast path: the thread-local stack; on miss, the shared pool.
fn pool_get<V: Pixel>(capacity: usize) -> Vec<PointRecord<V>> {
    let local = CHUNK_POOL.try_with(|p| {
        let mut pool = p.borrow_mut();
        local_slot(&mut pool, TypeId::of::<V>())
            .and_then(|stack| stack.pop())
            .and_then(|boxed| boxed.downcast::<Vec<PointRecord<V>>>().ok())
            .map(|b| *b)
    });
    let mut v = match local {
        Ok(Some(v)) => v,
        // Local tier empty (or already torn down): try the shared tier.
        _ => match shared_take::<V>() {
            Some(v) => v,
            None => return Vec::with_capacity(capacity),
        },
    };
    if v.capacity() < capacity {
        v.reserve(capacity - v.capacity());
    }
    v
}

/// Returns a point buffer to the pool for reuse: to the thread-local
/// tier while it has room, overflowing (or falling back during thread
/// teardown) to the shared tier.
fn pool_put<V: Pixel>(mut v: Vec<PointRecord<V>>) {
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    let leftover = CHUNK_POOL.try_with(|p| {
        let mut pool = p.borrow_mut();
        match local_slot(&mut pool, TypeId::of::<V>()) {
            Some(stack) if stack.len() < POOL_MAX_VECS => {
                stack.push(Box::new(std::mem::take(&mut v)));
                None
            }
            _ => Some(std::mem::take(&mut v)),
        }
    });
    match leftover {
        Ok(None) => {}
        Ok(Some(v)) => shared_put(v),
        // TLS already destroyed (thread teardown): recycle cross-thread.
        Err(_) => shared_put(v),
    }
}

/// Pool occupancy for pixel type `V`: `(thread_local, shared)` buffer
/// counts. The conservation regression test and the worker-pool metrics
/// read this; it is not a hot-path API.
pub fn pool_counts<V: Pixel>() -> (usize, usize) {
    let local = CHUNK_POOL
        .try_with(|p| {
            let mut pool = p.borrow_mut();
            local_slot(&mut pool, TypeId::of::<V>()).map(|s| s.len()).unwrap_or(0)
        })
        .unwrap_or(0);
    let shared = shared_pool().slots.get(&TypeId::of::<V>()).map(|s| s.len()).unwrap_or(0);
    (local, shared)
}

/// A contiguous run of points from one frame, plus the marker that
/// terminated the run (if any). See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct Chunk<V: Pixel> {
    /// The point run, in stream order. Never crosses a marker.
    pub points: Vec<PointRecord<V>>,
    /// The marker that ended this run; `None` = budget exhausted
    /// mid-frame (the next item continues the same frame).
    pub end: Option<Marker>,
    /// Causal identity of the producing stage (the ingest pump stamps
    /// its span context here before fan-out). `Copy` metadata: it rides
    /// through channels and clones for free and is excluded from
    /// equality, so traced and untraced runs compare identical.
    pub ctx: Option<crate::obs::TraceContext>,
}

impl<V: Pixel> PartialEq for Chunk<V> {
    fn eq(&self, other: &Self) -> bool {
        // ctx is provenance, not payload: the differential suites
        // compare data content only.
        self.points == other.points && self.end == other.end
    }
}

impl<V: Pixel> Chunk<V> {
    /// A fresh chunk whose buffer comes from the thread-local pool.
    pub fn with_budget(budget: usize) -> Self {
        Chunk { points: pool_get(budget.max(1)), end: None, ctx: None }
    }

    /// Number of points in the run.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the run holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns the point buffer to the pool for reuse.
    pub fn recycle(self) {
        pool_put(self.points);
    }

    /// The item this run makes with `end` as its trailing marker: the
    /// run itself, or — when no point is left in it — the bare marker,
    /// if any.
    pub fn into_item(mut self, end: Option<Marker>) -> Option<ChunkOrMarker<V>> {
        if self.points.is_empty() {
            self.recycle();
            return end.map(ChunkOrMarker::Marker);
        }
        self.end = end;
        Some(ChunkOrMarker::Chunk(self))
    }
}

/// One item of the chunked pull protocol: either a point run (with an
/// optional trailing marker) or a standalone marker.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkOrMarker<V: Pixel> {
    /// A non-empty point run, optionally terminated by a marker.
    Chunk(Chunk<V>),
    /// A marker with no preceding points.
    Marker(Marker),
}

impl<V: Pixel> ChunkOrMarker<V> {
    /// Number of points carried by this item.
    pub fn point_count(&self) -> usize {
        match self {
            ChunkOrMarker::Chunk(c) => c.points.len(),
            ChunkOrMarker::Marker(_) => 0,
        }
    }

    /// Number of scalar elements this item flattens to (points plus the
    /// marker, if present). Always at least 1 for protocol-valid items.
    pub fn element_count(&self) -> u64 {
        match self {
            ChunkOrMarker::Chunk(c) => c.points.len() as u64 + u64::from(c.end.is_some()),
            ChunkOrMarker::Marker(_) => 1,
        }
    }

    /// The trailing (or standalone) marker, if any.
    pub fn marker(&self) -> Option<&Marker> {
        match self {
            ChunkOrMarker::Chunk(c) => c.end.as_ref(),
            ChunkOrMarker::Marker(m) => Some(m),
        }
    }

    /// Visits the flattened element sequence by reference: points in
    /// order, then the trailing marker.
    pub fn for_each_element(&self, f: &mut dyn FnMut(&Element<V>)) {
        match self {
            ChunkOrMarker::Chunk(c) => {
                for p in &c.points {
                    f(&Element::Point(*p));
                }
                if let Some(m) = &c.end {
                    f(&m.clone().into_element());
                }
            }
            ChunkOrMarker::Marker(m) => f(&m.clone().into_element()),
        }
    }

    /// Consumes the item into its flattened element sequence, recycling
    /// the point buffer.
    pub fn into_elements(self, f: &mut dyn FnMut(Element<V>)) {
        match self {
            ChunkOrMarker::Chunk(mut c) => {
                let end = c.end.take();
                for p in c.points.drain(..) {
                    f(Element::Point(p));
                }
                c.recycle();
                if let Some(m) = end {
                    f(m.into_element());
                }
            }
            ChunkOrMarker::Marker(m) => f(m.into_element()),
        }
    }

    /// Returns the point buffer (if any) to the pool.
    pub fn recycle(self) {
        if let ChunkOrMarker::Chunk(c) = self {
            c.recycle();
        }
    }

    /// Hands the item's run to `f` (a bare marker has none), recycles
    /// the run's buffer and returns the trailing or bare marker: how an
    /// operator that reads whole runs takes one input item.
    pub(crate) fn take_run(self, f: impl FnOnce(&[PointRecord<V>])) -> Option<Marker> {
        match self {
            ChunkOrMarker::Chunk(mut c) => {
                f(&c.points);
                let end = c.end.take();
                c.recycle();
                end
            }
            ChunkOrMarker::Marker(m) => Some(m),
        }
    }
}

/// Packs the elements a per-element `step` yields into one chunk item:
/// a leading marker is returned standalone; otherwise points are taken
/// until the run holds `budget` of them or a marker cuts it short, that
/// marker riding in [`Chunk::end`]. Returns `None` once `step` does.
///
/// The `split2` and `tee2` sides, whose state machine emits one element
/// at a time, implement [`GeoStream::next_chunk`] as one call of this.
/// Nothing else does: every other stream queues whole runs in a
/// [`RunQueue`].
pub fn pack_elements<V: Pixel>(
    budget: usize,
    mut step: impl FnMut() -> Option<Element<V>>,
) -> Option<ChunkOrMarker<V>> {
    let budget = budget.max(1);
    let mut chunk = match Marker::from_element(step()?) {
        Ok(m) => return Some(ChunkOrMarker::Marker(m)),
        Err(p) => {
            let mut c = Chunk::with_budget(budget);
            c.points.push(p);
            c
        }
    };
    while chunk.points.len() < budget {
        match step().map(Marker::from_element) {
            None => break,
            Some(Ok(m)) => {
                chunk.end = Some(m);
                break;
            }
            Some(Err(p)) => chunk.points.push(p),
        }
    }
    Some(ChunkOrMarker::Chunk(chunk))
}

/// The output of a stream that emits whole runs (every buffering
/// operator of `ops`, chaos injection, stream repair, archive replay):
/// items in stream order, handed out under the budget rule. Markers are
/// pushed as items and points appended to [`open_run`](Self::open_run).
/// A run longer than the budget leaves in budget-sized pieces, cut by
/// an offset into the front run; a shorter one carries the marker that
/// follows it. The last run may still grow.
#[derive(Default)]
pub struct RunQueue<V: Pixel> {
    items: VecDeque<ChunkOrMarker<V>>,
    /// Points of the front run already handed out.
    offset: usize,
}

impl<V: Pixel> RunQueue<V> {
    /// Queues an item: a marker, or a whole run the queue does not end
    /// in.
    pub fn push(&mut self, item: ChunkOrMarker<V>) {
        self.items.push_back(item);
    }

    /// The run points are appended to: the last item, or a fresh run
    /// after a marker.
    pub fn open_run(&mut self) -> &mut Vec<PointRecord<V>> {
        let open_is_front = self.items.len() == 1;
        match self.items.back_mut() {
            // Partly handed out: keep only what is left.
            Some(ChunkOrMarker::Chunk(run)) if open_is_front => {
                run.points.drain(..std::mem::take(&mut self.offset));
            }
            Some(ChunkOrMarker::Chunk(_)) => {}
            _ => {
                self.items.push_back(ChunkOrMarker::Chunk(Chunk::with_budget(DEFAULT_CHUNK_BUDGET)))
            }
        }
        let Some(ChunkOrMarker::Chunk(run)) = self.items.back_mut() else {
            unreachable!("the queue ends in a run")
        };
        &mut run.points
    }

    /// Whether the front item can go out at `budget` as it is: a marker,
    /// a run of `budget` points, or a run a marker follows.
    pub fn ready(&self, budget: usize) -> bool {
        match self.items.front() {
            Some(ChunkOrMarker::Chunk(run)) => {
                run.len() - self.offset >= budget || self.items.len() > 1
            }
            Some(ChunkOrMarker::Marker(_)) => true,
            None => false,
        }
    }

    /// The front item at `budget`, whether or not it is
    /// [`ready`](Self::ready); `None` when the queue is empty.
    pub fn pop(&mut self, budget: usize) -> Option<ChunkOrMarker<V>> {
        if let Some(ChunkOrMarker::Chunk(run)) = self.items.front() {
            if run.len() - self.offset > budget {
                let mut piece = Chunk::with_budget(budget);
                piece.points.extend_from_slice(&run.points[self.offset..][..budget]);
                self.offset += budget;
                return Some(ChunkOrMarker::Chunk(piece));
            }
        }
        let mut item = self.items.pop_front()?;
        if let ChunkOrMarker::Chunk(run) = &mut item {
            run.points.drain(..std::mem::take(&mut self.offset));
            if run.len() < budget && matches!(self.items.front(), Some(ChunkOrMarker::Marker(_))) {
                if let Some(ChunkOrMarker::Marker(m)) = self.items.pop_front() {
                    run.end = Some(m);
                }
            }
        }
        Some(item)
    }
}

/// The input side of a stream whose state machine consumes one element
/// at a time (the `tee2` sides, the multi-query front end) or that
/// reads two inputs run against run (composition): it
/// pulls whole chunks and serves their elements in place, so the
/// subtree below always runs its chunk path — one virtual call, one
/// clock sample and one repair pass per run instead of per point —
/// whatever the shape of the consumer.
///
/// The element sequence is exactly the flattening of the input's chunk
/// protocol. A consumer reads its input through this cursor only; what
/// it has staged is not visible to a direct pull of the wrapped stream.
/// A consumer that works on runs peeks at the staged run with
/// [`peek_run`](Self::peek_run) and takes a prefix of it with
/// [`consume`](Self::consume).
pub struct ChunkInput<S: GeoStream> {
    stream: S,
    /// The item being served: `points[..idx]` are consumed, then `end`.
    staged: Chunk<S::V>,
    idx: usize,
    /// The wrapped stream has returned `None`.
    ended: bool,
}

impl<S: GeoStream> ChunkInput<S> {
    /// Wraps an input stream; nothing is pulled until the first read.
    pub fn new(stream: S) -> Self {
        ChunkInput {
            stream,
            staged: Chunk { points: Vec::new(), end: None, ctx: None },
            idx: 0,
            ended: false,
        }
    }

    /// The unconsumed points of the staged run, staging the next item
    /// once the run and its marker are used up: empty when the next
    /// element is a marker or the input has ended.
    #[inline]
    pub fn peek_run(&mut self) -> &[PointRecord<S::V>] {
        while self.idx == self.staged.points.len() && self.staged.end.is_none() && !self.ended {
            match self.stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
                None => self.ended = true,
                Some(ChunkOrMarker::Marker(m)) => {
                    self.staged.points.clear();
                    self.staged.end = Some(m);
                    self.idx = 0;
                }
                Some(ChunkOrMarker::Chunk(c)) => {
                    std::mem::replace(&mut self.staged, c).recycle();
                    self.idx = 0;
                }
            }
        }
        &self.staged.points[self.idx..]
    }

    /// Consumes the first `n` points [`peek_run`](Self::peek_run)
    /// returned.
    #[inline]
    pub fn consume(&mut self, n: usize) {
        debug_assert!(self.idx + n <= self.staged.points.len(), "consumed past the staged run");
        self.idx += n;
    }

    /// The next element in stream order; `None` once the input ended.
    #[inline]
    pub fn pull(&mut self) -> Option<Element<S::V>> {
        if let Some(&p) = self.peek_run().first() {
            self.idx += 1;
            return Some(Element::Point(p));
        }
        self.staged.end.take().map(Marker::into_element)
    }

    /// The wrapped stream (schema and statistics).
    pub fn stream(&self) -> &S {
        &self.stream
    }
}

/// Drains a stream at `budget` and returns the flattened element
/// sequence — the same at every budget (the differential-test helper).
pub fn drain_chunked<S: GeoStream + ?Sized>(stream: &mut S, budget: usize) -> Vec<Element<S::V>> {
    let mut out = Vec::new();
    while let Some(item) = stream.next_chunk(budget) {
        item.into_elements(&mut |el| out.push(el));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StreamSchema, Timestamp, VecStream};
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    fn source(w: u32, h: u32) -> VecStream<f32> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), w, h);
        VecStream::single_sector("chunk-src", lattice, 0, |c, r| f64::from(c + 10 * r))
    }

    #[test]
    fn chunks_never_cross_markers() {
        let mut s = source(8, 4);
        while let Some(item) = s.next_chunk(5) {
            if let ChunkOrMarker::Chunk(c) = &item {
                assert!(!c.points.is_empty(), "chunks carry at least one point");
                let row = c.points[0].cell.row;
                assert!(c.points.iter().all(|p| p.cell.row == row), "run stays in one frame");
                assert!(c.points.len() <= 5, "a run holds at most the budget");
                assert!(c.points.len() < 5 || c.end.is_none(), "a full run carries no marker");
            }
            item.recycle();
        }
    }

    #[test]
    fn partial_run_attaches_trailing_marker() {
        // Row width 8, budget 5: the second run of each row holds 3
        // points and must carry the row's FrameEnd in `end` rather than
        // splitting it into a separate pull.
        let mut s = source(8, 2);
        let mut saw_partial_run_with_end = false;
        while let Some(item) = s.next_chunk(5) {
            if let ChunkOrMarker::Chunk(c) = &item {
                if c.points.len() == 3 {
                    assert!(matches!(c.end, Some(Marker::FrameEnd(_))));
                    saw_partial_run_with_end = true;
                }
            }
            item.recycle();
        }
        assert!(saw_partial_run_with_end);
    }

    #[test]
    fn run_queue_round_trips() {
        let mut src = source(6, 3);
        let semantics = src.schema().time_semantics;
        let els = src.drain_elements();
        let queued = || {
            let mut q = RunQueue::default();
            for el in els.iter().cloned() {
                match Marker::from_element(el) {
                    Ok(m) => q.push(ChunkOrMarker::Marker(m)),
                    Err(p) => q.open_run().push(p),
                }
            }
            q
        };
        for budget in [1usize, 2, 3, 1024] {
            let mut q = queued();
            let mut checker = crate::ops::ChunkProtocolChecker::new(budget, semantics);
            let mut out = Vec::new();
            while let Some(item) = q.pop(budget) {
                checker.observe(&item);
                item.into_elements(&mut |el| out.push(el));
            }
            checker.finish();
            assert_eq!(checker.violations(), 0, "budget {budget}: {:?}", checker.first_violation());
            assert_eq!(out, els, "budget {budget}");
        }
        // A row of 6 at budget 3: the FrameEnd after a full run is its
        // own item, not folded into the run.
        let mut q = queued();
        let items: Vec<_> = std::iter::from_fn(|| q.pop(3)).collect();
        assert!(items.iter().all(|i| i.point_count() < 3 || i.marker().is_none()));
        assert!(matches!(items[4], ChunkOrMarker::Marker(Marker::FrameEnd(_))));
    }

    #[test]
    fn pool_reuses_buffers() {
        let mut c = Chunk::<f32>::with_budget(256);
        c.points.push(PointRecord { cell: geostreams_geo::Cell::new(0, 0), value: 1.0 });
        let cap = c.points.capacity();
        let ptr = c.points.as_ptr() as usize;
        c.recycle();
        let c2 = Chunk::<f32>::with_budget(16);
        assert!(c2.points.is_empty());
        assert_eq!(c2.points.as_ptr() as usize, ptr, "buffer came back from the pool");
        assert!(c2.points.capacity() >= cap);
    }

    #[test]
    fn pool_conserves_buffers_across_thread_exit() {
        // Regression: buffers recycled on a worker thread used to be
        // stranded in its thread-local pool at exit. They must migrate
        // to the shared tier and stay reusable. Rgb8 is used by no
        // other test in this binary, so the counts are interference-free.
        use geostreams_raster::Rgb8;
        const N: usize = 8;
        let (_, shared_before) = pool_counts::<Rgb8>();
        let ptrs = std::thread::spawn(|| {
            let mut ptrs = Vec::new();
            let mut chunks = Vec::new();
            for _ in 0..N {
                let mut c = Chunk::<Rgb8>::with_budget(64);
                c.points.push(PointRecord {
                    cell: geostreams_geo::Cell::new(0, 0),
                    value: Rgb8::default(),
                });
                ptrs.push(c.points.as_ptr() as usize);
                chunks.push(c);
            }
            for c in chunks {
                c.recycle();
            }
            ptrs
        })
        .join()
        .expect("worker thread");
        let (_, shared_after) = pool_counts::<Rgb8>();
        assert_eq!(
            shared_after,
            shared_before + N,
            "all {N} buffers recycled on the worker migrated to the shared pool"
        );
        // And they are genuinely reusable from this (different) thread.
        let c = Chunk::<Rgb8>::with_budget(16);
        assert!(c.points.capacity() >= 64, "buffer came back with its capacity");
        assert!(
            ptrs.contains(&(c.points.as_ptr() as usize)),
            "reused buffer is one the worker thread pooled"
        );
        c.recycle();
    }

    #[test]
    fn pool_put_overflow_spills_to_shared_tier() {
        // Fill this thread's local tier past POOL_MAX_VECS; the
        // overflow must land in the shared pool instead of being
        // dropped. (f64 buffers; counts are lower bounds because other
        // tests may touch the shared tier concurrently.)
        let (_, shared_before) = pool_counts::<f64>();
        let bufs: Vec<Vec<PointRecord<f64>>> =
            (0..POOL_MAX_VECS + 4).map(|_| Vec::with_capacity(8)).collect();
        for b in bufs {
            pool_put(b);
        }
        let (local, shared) = pool_counts::<f64>();
        assert!(local <= POOL_MAX_VECS);
        assert!(shared >= shared_before + 4, "overflow spilled, not dropped");
    }

    #[test]
    fn element_counts_cover_markers() {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 1.0, 1.0), 2, 1);
        let mut s = VecStream::new(
            StreamSchema::new("m", Crs::LatLon),
            vec![Element::<f32>::point(geostreams_geo::Cell::new(0, 0), 1.0)],
        );
        let item = s.next_chunk(4).expect("one item");
        assert_eq!(item.element_count(), 1);
        assert_eq!(item.point_count(), 1);
        let _ = (lattice, Timestamp::new(0));
    }
}
