//! The simulated device: CUDA-style kernel launches with cost accounting.
//!
//! A kernel is a closure executed once per *block* of a grid. Blocks run in
//! parallel on host threads (real speedup) while self-reporting operation
//! counts through [`BlockCtx`] (simulated time). The index code in
//! `smiler-index` launches kernels exactly along the paper's decomposition:
//! one block per sliding-window posting list, one block per CSG, one block
//! per k-selection.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::cost::{BlockCost, CostModel, CpuSpec, GpuSpec, KernelStats};
use parking_lot::Mutex;

/// Which hardware the device simulates.
#[derive(Debug, Clone, Copy)]
enum DeviceModel {
    Gpu(GpuSpec),
    Cpu(CpuSpec),
}

impl DeviceModel {
    fn as_cost_model(&self) -> &dyn CostModel {
        match self {
            DeviceModel::Gpu(s) => s,
            DeviceModel::Cpu(s) => s,
        }
    }
}

/// How a [`Device`] clocks its launches: always the cost model. Kept, with
/// [`Device::backend_kind`], for the benchmark's report stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Cost-model simulation (paper-faithful timing).
    Sim,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("sim")
    }
}

/// Error returned when a block over-allocates shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedMemOverflow {
    /// Bytes the kernel asked for in total.
    pub requested: usize,
    /// Per-block budget of the device.
    pub capacity: usize,
}

impl std::fmt::Display for SharedMemOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shared memory overflow: requested {} of {} bytes", self.requested, self.capacity)
    }
}

impl std::error::Error for SharedMemOverflow {}

/// Per-block execution context. Kernels call the reporting methods as they
/// work; the counts feed the cost model after the launch.
#[derive(Debug)]
pub struct BlockCtx {
    block_id: usize,
    cost: BlockCost,
    shared_used: usize,
    shared_capacity: usize,
}

impl BlockCtx {
    fn new(block_id: usize, shared_capacity: usize) -> Self {
        BlockCtx { block_id, cost: BlockCost::default(), shared_used: 0, shared_capacity }
    }

    /// Index of this block within the grid.
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Report `words` f64 reads from global memory.
    pub fn read_global(&mut self, words: u64) {
        self.cost.global_reads += words;
    }

    /// Report `words` f64 writes to global memory.
    pub fn write_global(&mut self, words: u64) {
        self.cost.global_writes += words;
    }

    /// Report `words` shared-memory accesses.
    pub fn access_shared(&mut self, words: u64) {
        self.cost.shared_accesses += words;
    }

    /// Report `n` floating-point operations executed by converged lanes.
    pub fn flops(&mut self, n: u64) {
        self.cost.flops += n;
    }

    /// Report `n` operations serialised by warp divergence (§4.4).
    pub fn diverge(&mut self, n: u64) {
        self.cost.divergent_ops += n;
    }

    /// Report a block-wide barrier (`__syncthreads()`).
    pub fn sync(&mut self) {
        self.cost.syncs += 1;
    }

    /// Reserve `bytes` of the block's shared memory, as a CUDA kernel would
    /// declare a `__shared__` array. The paper's compressed warping matrix
    /// (Appendix E) exists precisely to fit this budget.
    pub fn alloc_shared(&mut self, bytes: usize) -> Result<(), SharedMemOverflow> {
        let requested = self.shared_used + bytes;
        if requested > self.shared_capacity {
            return Err(SharedMemOverflow { requested, capacity: self.shared_capacity });
        }
        self.shared_used = requested;
        Ok(())
    }
}

/// Result of one kernel launch: the per-block results in grid order plus the
/// aggregated simulated-cost statistics.
#[derive(Debug, serde::Serialize)]
pub struct LaunchReport<R> {
    /// Per-block kernel results, indexed by block id.
    pub results: Vec<R>,
    /// Aggregated cost statistics of the launch.
    pub stats: KernelStats,
}

#[derive(Debug, Default)]
struct DeviceClock {
    sim_seconds: f64,
    saturated_seconds: f64,
    kernel_launches: u64,
    blocks_launched: u64,
    total: BlockCost,
}

/// A simulated compute device (GPU by default, or a CPU for the scan
/// baselines). The device keeps a cumulative simulated clock so a whole
/// experiment (many launches) can be timed with one call.
#[derive(Debug)]
pub struct Device {
    model: DeviceModel,
    shared_capacity: usize,
    memory_capacity: usize,
    memory_used: Mutex<usize>,
    clock: Mutex<DeviceClock>,
    host_threads: usize,
}

impl Device {
    /// A simulated GPU.
    pub fn gpu(spec: GpuSpec) -> Self {
        Device {
            shared_capacity: spec.shared_bytes_per_block,
            memory_capacity: spec.memory_bytes,
            model: DeviceModel::Gpu(spec),
            memory_used: Mutex::new(0),
            clock: Mutex::new(DeviceClock::default()),
            host_threads: default_host_threads(),
        }
    }

    /// A simulated CPU with the same launch interface, used by the
    /// FastCPUScan baseline so all Figure 7 methods share one cost
    /// framework.
    pub fn cpu(spec: CpuSpec) -> Self {
        Device {
            model: DeviceModel::Cpu(spec),
            shared_capacity: usize::MAX,
            memory_capacity: usize::MAX,
            memory_used: Mutex::new(0),
            clock: Mutex::new(DeviceClock::default()),
            host_threads: default_host_threads(),
        }
    }

    /// The default simulated GPU (the paper's GTX TITAN).
    pub fn default_gpu() -> Self {
        Device::gpu(GpuSpec::default())
    }

    /// Which clock times this device's launches.
    pub fn backend_kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    /// Restrict host-side parallelism (useful in tests and benches).
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.host_threads = threads.max(1);
        self
    }

    /// Map `f` over `items` on host threads; results come back in item
    /// order. This is the workspace's one host parallel-for: kernel blocks
    /// ([`Device::launch`]) and GP column training both run through it, so
    /// [`Device::with_host_threads`] bounds them alike.
    ///
    /// With at most one item or one host thread the items run inline on
    /// the calling thread — a spawn costs more than many tiny hot-path
    /// grids. Otherwise the caller is worker zero and `min(host_threads,
    /// n) − 1` scoped workers join it, each taking the next item off one
    /// shared queue. A panicking item is re-raised with its own payload.
    pub fn host_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let workers = self.host_threads.min(items.len());
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        let queue = Mutex::new(items.into_iter().enumerate());
        let drain = || {
            let mut done = Vec::new();
            loop {
                let Some((i, item)) = queue.lock().next() else { break };
                done.push((i, f(item)));
            }
            done
        };
        let mut done = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(|_| drain())).collect();
            let mut done = drain();
            for handle in handles {
                match handle.join() {
                    Ok(part) => done.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            done
        })
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        // Each worker's results are already in item order, so this sort
        // only merges the runs.
        done.sort_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Launch a kernel over `blocks` blocks. Blocks execute in parallel on
    /// host threads ([`Device::host_map`]); results are returned in grid
    /// order.
    pub fn launch<R, F>(&self, blocks: usize, kernel: F) -> LaunchReport<R>
    where
        R: Send,
        F: Fn(&mut BlockCtx) -> R + Sync,
    {
        let ran = self.host_map((0..blocks).collect(), |id| {
            let mut ctx = BlockCtx::new(id, self.shared_capacity);
            let result = kernel(&mut ctx);
            (result, ctx.cost)
        });

        // Simulated time is a pure function of the reported costs in grid
        // order — identical no matter how many host threads ran the grid.
        let model = self.model.as_cost_model();
        let mut results = Vec::with_capacity(blocks);
        let mut cycles = Vec::with_capacity(blocks);
        let mut total = BlockCost::default();
        for (r, c) in ran {
            total.merge(&c);
            cycles.push(model.block_cycles(&c));
            results.push(r);
        }
        let sim_seconds = model.makespan_seconds(&cycles);
        let saturated_seconds =
            cycles.iter().sum::<f64>() / (model.parallel_units().max(1) as f64 * model.clock_hz());
        let stats = KernelStats { blocks: blocks as u64, total, sim_seconds, saturated_seconds };

        if smiler_obs::enabled() {
            smiler_obs::count("gpu.launches", "", 1);
            smiler_obs::count("gpu.blocks", "", blocks as u64);
            smiler_obs::observe("gpu.sim_seconds", "", sim_seconds);
            smiler_obs::event("gpu.launch", "", &stats);
        }

        let mut clock = self.clock.lock();
        clock.sim_seconds += sim_seconds;
        clock.saturated_seconds += saturated_seconds;
        clock.kernel_launches += 1;
        clock.blocks_launched += blocks as u64;
        clock.total.merge(&total);

        LaunchReport { results, stats }
    }

    /// Cumulative simulated seconds across all launches since the last
    /// [`Device::reset_clock`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.clock.lock().sim_seconds
    }

    /// Cumulative device-saturated seconds (see
    /// [`KernelStats::saturated_seconds`]) since the last reset. This is
    /// the meaningful aggregate when simulating a large sensor fleet that
    /// keeps every SM busy — the paper's operating point.
    pub fn saturated_seconds(&self) -> f64 {
        self.clock.lock().saturated_seconds
    }

    /// Number of kernel launches since the last reset.
    pub fn kernel_launches(&self) -> u64 {
        self.clock.lock().kernel_launches
    }

    /// Cumulative blocks across all launches since the last reset. Together
    /// with [`Device::kernel_launches`] this gives the mean grid width — the
    /// figure of merit for batched serving, where micro-batching should grow
    /// grids rather than multiply launches.
    pub fn blocks_launched(&self) -> u64 {
        self.clock.lock().blocks_launched
    }

    /// Reset the cumulative clock (between experiment phases).
    pub fn reset_clock(&self) {
        *self.clock.lock() = DeviceClock::default();
    }

    /// Try to reserve `bytes` of device memory (index residency, Fig 12c).
    /// Returns `false` without reserving when the capacity would be
    /// exceeded.
    pub fn try_reserve_memory(&self, bytes: usize) -> bool {
        let mut used = self.memory_used.lock();
        match used.checked_add(bytes) {
            Some(new_used) if new_used <= self.memory_capacity => {
                *used = new_used;
                true
            }
            _ => false,
        }
    }

    /// Bytes currently reserved.
    pub fn memory_used(&self) -> usize {
        *self.memory_used.lock()
    }

    /// Total device memory capacity in bytes.
    pub fn memory_capacity(&self) -> usize {
        self.memory_capacity
    }
}

fn default_host_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn launch_returns_results_in_grid_order() {
        let dev = Device::default_gpu();
        let report = dev.launch(100, |ctx| ctx.block_id() * 2);
        assert_eq!(report.results.len(), 100);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(*r, i * 2);
        }
    }

    #[test]
    fn zero_blocks_is_a_noop() {
        let dev = Device::default_gpu();
        let report = dev.launch(0, |_| 0u8);
        assert!(report.results.is_empty());
        assert_eq!(report.stats.sim_seconds, 0.0);
        assert_eq!(dev.kernel_launches(), 1);
    }

    #[test]
    fn costs_accumulate_on_device_clock() {
        let dev = Device::default_gpu();
        dev.launch(10, |ctx| ctx.flops(1000));
        let t1 = dev.elapsed_seconds();
        assert!(t1 > 0.0);
        dev.launch(10, |ctx| ctx.flops(1000));
        assert!((dev.elapsed_seconds() - 2.0 * t1).abs() < 1e-15);
        dev.reset_clock();
        assert_eq!(dev.elapsed_seconds(), 0.0);
        assert_eq!(dev.kernel_launches(), 0);
    }

    #[test]
    fn blocks_launched_accumulates_grid_widths() {
        let dev = Device::default_gpu();
        dev.launch(10, |_| ());
        dev.launch(3, |_| ());
        assert_eq!(dev.kernel_launches(), 2);
        assert_eq!(dev.blocks_launched(), 13);
        dev.reset_clock();
        assert_eq!(dev.blocks_launched(), 0);
    }

    #[test]
    fn stats_sum_block_counts() {
        let dev = Device::default_gpu();
        let report = dev.launch(5, |ctx| {
            ctx.read_global(10);
            ctx.write_global(2);
            ctx.flops(100);
            ctx.sync();
        });
        assert_eq!(report.stats.blocks, 5);
        assert_eq!(report.stats.total.global_reads, 50);
        assert_eq!(report.stats.total.global_writes, 10);
        assert_eq!(report.stats.total.flops, 500);
        assert_eq!(report.stats.total.syncs, 5);
    }

    #[test]
    fn shared_memory_budget_enforced() {
        let dev = Device::default_gpu();
        let report = dev.launch(1, |ctx| {
            assert!(ctx.alloc_shared(16 * 1024).is_ok());
            assert!(ctx.alloc_shared(16 * 1024).is_ok());
            // 48 KiB budget: the third 32 KiB must fail.
            let err = ctx.alloc_shared(32 * 1024).unwrap_err();
            assert_eq!(err.capacity, 48 * 1024);
            ctx.shared_used
        });
        assert_eq!(report.results[0], 32 * 1024);
    }

    #[test]
    fn cpu_device_is_slower_than_gpu_on_parallel_work() {
        let gpu = Device::default_gpu();
        let cpu = Device::cpu(CpuSpec::default());
        // Compute-bound work, like DTW verification: the GPU advantage
        // comes from arithmetic throughput, not bandwidth.
        let work = |ctx: &mut BlockCtx| {
            ctx.read_global(100);
            ctx.flops(50_000);
        };
        let g = gpu.launch(1000, work).stats.sim_seconds;
        let c = cpu.launch(1000, work).stats.sim_seconds;
        assert!(c > 10.0 * g, "cpu {c} vs gpu {g}");
    }

    #[test]
    fn memory_reservation_respects_capacity() {
        let spec = GpuSpec { memory_bytes: 1000, ..Default::default() };
        let dev = Device::gpu(spec);
        assert!(dev.try_reserve_memory(600));
        assert!(!dev.try_reserve_memory(600));
        assert_eq!(dev.memory_used(), 600);
        assert!(dev.try_reserve_memory(400));
        assert_eq!(dev.memory_used(), 1000);
    }

    #[test]
    fn a_panicking_block_unwinds_with_its_own_payload() {
        for threads in [1, 4] {
            let dev = Device::default_gpu().with_host_threads(threads);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dev.launch(8, |ctx| {
                    if ctx.block_id() == 3 {
                        panic!("block 3 exploded");
                    }
                })
            }));
            let payload = caught.expect_err("block 3 panics");
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            assert_eq!(message.as_deref(), Some("block 3 exploded"), "{threads} host threads");
        }
    }

    #[test]
    fn host_map_returns_item_order_when_item_zero_finishes_last() {
        let n = 8;
        let dev = Device::default_gpu().with_host_threads(4);
        let finished = AtomicUsize::new(0);
        let out = dev.host_map((0..n).collect(), |i: usize| {
            if i == 0 {
                // Hold item 0 until every other item is done.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                while finished.load(Ordering::SeqCst) < n - 1 {
                    assert!(std::time::Instant::now() < deadline, "other items never finished");
                    std::thread::yield_now();
                }
            } else {
                // Slow enough that the workers share the other items.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            (i * 10, finished.fetch_add(1, Ordering::SeqCst))
        });
        let values: Vec<usize> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, (0..n).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(out[0].1, n - 1, "item 0 finished last");
    }

    #[test]
    fn parallel_launch_matches_serial_results() {
        let serial = Device::default_gpu().with_host_threads(1);
        let parallel = Device::default_gpu().with_host_threads(8);
        let kernel = |ctx: &mut BlockCtx| {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i + ctx.block_id() as u64);
            }
            ctx.flops(100);
            acc
        };
        let a = serial.launch(257, kernel);
        let b = parallel.launch(257, kernel);
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats, b.stats);
    }
}
