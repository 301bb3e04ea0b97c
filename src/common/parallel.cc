#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace rasengan::parallel {

namespace {

thread_local bool tls_in_parallel = false;

int
resolveThreadCount(int requested)
{
    if (requested > 0)
        return std::min(requested, 256);
    if (const char *env = std::getenv("RASENGAN_THREADS")) {
        int n = std::atoi(env);
        if (n > 0)
            return std::min(n, 256);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(std::min(hw, 256u));
}

/**
 * The global job pool.  Workers park on a condition variable between
 * runs; a run wakes every worker, and each lane (the caller included)
 * executes the same claim loop until the shared work list is empty.
 */
class Pool
{
  public:
    static Pool &
    instance()
    {
        static Pool pool;
        return pool;
    }

    int size() const { return size_.load(std::memory_order_relaxed); }

    void
    configure(int requested)
    {
        std::lock_guard<std::mutex> serial(runMutex_);
        stopWorkers();
        size_.store(resolveThreadCount(requested),
                    std::memory_order_relaxed);
        startWorkers();
    }

    /**
     * Run @p loop on the caller and on every worker; returns after
     * every lane returned.
     */
    void
    run(const std::function<void()> &loop)
    {
        std::lock_guard<std::mutex> serial(runMutex_);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            loop_ = &loop;
            pending_ = static_cast<int>(workers_.size());
            ++generation_;
        }
        wake_.notify_all();

        tls_in_parallel = true;
        loop();
        tls_in_parallel = false;

        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this] { return pending_ == 0; });
        loop_ = nullptr;
    }

  private:
    Pool() : size_(resolveThreadCount(0)) { startWorkers(); }

    ~Pool() { stopWorkers(); }

    void
    startWorkers()
    {
        shutdown_ = false;
        // Fresh workers must not observe a generation bump from before
        // they were spawned: hand each its starting generation so the
        // first wake only fires on the next run().
        const uint64_t gen = generation_;
        for (int w = 0; w < size() - 1; ++w)
            workers_.emplace_back([this, gen] { workerLoop(gen); });
    }

    void
    stopWorkers()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            shutdown_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : workers_)
            t.join();
        workers_.clear();
        // All workers are joined: drop the stale run so nothing dangles.
        loop_ = nullptr;
    }

    void
    workerLoop(uint64_t seen)
    {
        for (;;) {
            const std::function<void()> *loop = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [&] {
                    return shutdown_ || generation_ != seen;
                });
                if (shutdown_)
                    return;
                seen = generation_;
                loop = loop_;
            }
            tls_in_parallel = true;
            (*loop)();
            tls_in_parallel = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                --pending_;
            }
            done_.notify_one();
        }
    }

    std::mutex runMutex_; ///< serializes run()/configure() callers

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
    const std::function<void()> *loop_ = nullptr;
    uint64_t generation_ = 0;
    int pending_ = 0;
    /** Atomic: parallelForDynamic reads it without runMutex_ while
     *  another thread (a loopback cluster worker at hello) may be
     *  reconfiguring; run() then uses the workers it finds. */
    std::atomic<int> size_{1};
    bool shutdown_ = false;
};

} // namespace

int
threadCount()
{
    return Pool::instance().size();
}

void
setThreadCount(int n)
{
    panic_if(tls_in_parallel,
             "setThreadCount from inside a parallel region");
    Pool::instance().configure(n);
}

bool
inParallelRegion()
{
    return tls_in_parallel;
}

void
parallelForDynamic(uint64_t begin, uint64_t end,
                   const std::function<void(uint64_t)> &fn)
{
    if (begin >= end)
        return;
    Pool &pool = Pool::instance();
    if (pool.size() <= 1 || end - begin <= 1 || tls_in_parallel) {
        for (uint64_t i = begin; i < end; ++i)
            fn(i);
        return;
    }
    std::atomic<uint64_t> next{begin};
    pool.run([&] {
        for (;;) {
            uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= end)
                return;
            fn(i);
        }
    });
}

double
reduceBlocks(uint64_t begin, uint64_t end, uint64_t block,
             const std::function<double(uint64_t, uint64_t)> &fn)
{
    if (begin >= end)
        return 0.0;
    if (block == 0)
        block = 1;
    if (end - begin <= block)
        return fn(begin, end);
    double acc = 0.0;
    for (uint64_t lo = begin; lo < end; lo += block)
        acc += fn(lo, std::min(lo + block, end));
    return acc;
}

std::complex<double>
reduceBlocksComplex(uint64_t begin, uint64_t end, uint64_t block,
                    const std::function<std::complex<double>(
                        uint64_t, uint64_t)> &fn)
{
    if (begin >= end)
        return {0.0, 0.0};
    if (block == 0)
        block = 1;
    if (end - begin <= block)
        return fn(begin, end);
    std::complex<double> acc{0.0, 0.0};
    for (uint64_t lo = begin; lo < end; lo += block)
        acc += fn(lo, std::min(lo + block, end));
    return acc;
}

} // namespace rasengan::parallel
