#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>

#include "metrics/digest.h"
#include "metrics/stats.h"

namespace hcq::pipeline {

stage::stage(std::string name, service_model service, std::size_t num_servers)
    : name_(std::move(name)), service_(std::move(service)), num_servers_(num_servers) {
    if (!service_) throw std::invalid_argument("stage: null service model");
    if (num_servers_ == 0) throw std::invalid_argument("stage: zero servers");
}

stage stage::constant(std::string name, double service_us) {
    if (service_us < 0.0) throw std::invalid_argument("stage::constant: negative service");
    return stage(std::move(name), [service_us](std::size_t, util::rng&) { return service_us; });
}

stage stage::lognormal(std::string name, double median_us, double sigma) {
    if (median_us <= 0.0 || sigma < 0.0) {
        throw std::invalid_argument("stage::lognormal: bad parameters");
    }
    const double mu = std::log(median_us);
    return stage(std::move(name), [mu, sigma](std::size_t, util::rng& rng) {
        return std::exp(rng.normal(mu, sigma));
    });
}

stage stage::from_trace(std::string name, std::vector<double> trace_us) {
    if (trace_us.empty()) throw std::invalid_argument("stage::from_trace: empty trace");
    for (const double t : trace_us) {
        if (t < 0.0 || !std::isfinite(t)) {
            throw std::invalid_argument("stage::from_trace: bad trace entry");
        }
    }
    return stage(std::move(name),
                 [trace = std::move(trace_us)](std::size_t job_index, util::rng&) {
                     return trace[job_index % trace.size()];
                 });
}

stage stage::with_servers(std::size_t num_servers) const {
    stage copy = *this;
    if (num_servers == 0) throw std::invalid_argument("stage::with_servers: zero servers");
    copy.num_servers_ = num_servers;
    return copy;
}

double stage::service_us(std::size_t job_index, util::rng& rng) const {
    const double s = service_(job_index, rng);
    if (s < 0.0 || !std::isfinite(s)) throw std::runtime_error("stage: bad service time");
    return s;
}

const char* to_string(backpressure policy) noexcept {
    switch (policy) {
        case backpressure::block: return "block";
        case backpressure::drop_oldest: return "drop-oldest";
        case backpressure::drop_newest: return "drop-newest";
    }
    return "?";
}

backpressure parse_backpressure(const std::string& text) {
    if (text == "block") return backpressure::block;
    if (text == "drop-oldest") return backpressure::drop_oldest;
    if (text == "drop-newest") return backpressure::drop_newest;
    throw std::invalid_argument("parse_backpressure: unknown policy '" + text +
                                "' (expected block, drop-oldest, or drop-newest)");
}

namespace {

/// Per-stage accounting shared by both simulator cores.
struct stage_accounting {
    double busy_us = 0.0;            ///< total service time
    double wait_us = 0.0;            ///< buffer wait of jobs that entered service
    double occupancy_area_us = 0.0;  ///< buffer residency incl. evicted jobs
    std::size_t served = 0;          ///< jobs that entered service
    std::size_t drops = 0;
    std::size_t max_queue = 0;
};

void finalize(simulation_result& result, const std::vector<stage>& stages,
              const std::vector<stage_accounting>& acct, metrics::running_stats& latency_stats,
              const metrics::latency_digest& digest, bool recorded) {
    const std::size_t k = stages.size();
    result.jobs_dropped = result.num_jobs - result.jobs_completed;
    result.drop_rate = result.num_jobs > 0
                           ? static_cast<double>(result.jobs_dropped) /
                                 static_cast<double>(result.num_jobs)
                           : 0.0;
    result.throughput_per_us =
        result.makespan_us > 0.0
            ? static_cast<double>(result.jobs_completed) / result.makespan_us
            : 0.0;
    result.mean_latency_us = latency_stats.mean();
    if (recorded && !result.latencies_us.empty()) {
        result.p50_latency_us = metrics::percentile(result.latencies_us, 50.0);
        result.p99_latency_us = metrics::percentile(result.latencies_us, 99.0);
    } else {
        result.p50_latency_us = digest.p50();
        result.p99_latency_us = digest.p99();
    }
    result.max_latency_us = latency_stats.max();
    result.stage_utilization.resize(k);
    result.mean_queue_wait_us.resize(k);
    result.mean_queue_len.resize(k);
    result.max_queue_len.resize(k);
    result.stage_drops.resize(k);
    for (std::size_t s = 0; s < k; ++s) {
        const double capacity_us =
            result.makespan_us * static_cast<double>(stages[s].servers());
        result.stage_utilization[s] = capacity_us > 0.0 ? acct[s].busy_us / capacity_us : 0.0;
        result.mean_queue_wait_us[s] =
            acct[s].served > 0 ? acct[s].wait_us / static_cast<double>(acct[s].served) : 0.0;
        result.mean_queue_len[s] =
            result.makespan_us > 0.0 ? acct[s].occupancy_area_us / result.makespan_us : 0.0;
        result.max_queue_len[s] = acct[s].max_queue;
        result.stage_drops[s] = acct[s].drops;
    }
}

// ---------------------------------------------------------------------------
// Unbounded core: the legacy forward recurrence, extended with round-robin
// multi-server stages and queue-occupancy tracking.  The bounded core at an
// ample capacity reproduces it (same draws, same results), yet it stays: it
// is the independent reference the bounded core is checked against
// (tests/pipeline_test.cpp, Bounded.AmpleCapacityMatchesUnboundedExactly),
// and routing unbounded_capacity through the bounded core would turn that
// check into a comparison of the bounded core with itself.
// ---------------------------------------------------------------------------
simulation_result simulate_unbounded(const std::vector<stage>& stages, std::size_t num_jobs,
                                     const arrival_process& arrivals, util::rng& rng,
                                     const sim_options& options) {
    const std::size_t k = stages.size();
    std::vector<std::vector<double>> server_free(k);
    for (std::size_t s = 0; s < k; ++s) server_free[s].assign(stages[s].servers(), 0.0);
    std::vector<double> enter_clamp(k, 0.0);  // in-order delivery between stages
    std::vector<double> start_clamp(k, 0.0);  // in-order dispatch within a stage
    // Min-heaps of service-start times of jobs still counted as queued, for
    // peak-occupancy tracking; bounded by the actual queue build-up.
    std::vector<std::priority_queue<double, std::vector<double>, std::greater<>>> pending(k);
    std::vector<stage_accounting> acct(k);

    simulation_result result;
    result.num_jobs = num_jobs;
    if (options.record_latencies) result.latencies_us.reserve(num_jobs);

    metrics::latency_digest digest;
    metrics::running_stats latency_stats;
    double arrival = 0.0;
    for (std::size_t j = 0; j < num_jobs; ++j) {
        if (j > 0) {
            arrival += arrivals.poisson
                           ? -arrivals.interarrival_us * std::log(1.0 - rng.uniform())
                           : arrivals.interarrival_us;
        }
        double ready = arrival;  // job available to the first stage
        for (std::size_t s = 0; s < k; ++s) {
            const double enter = std::max(ready, enter_clamp[s]);
            enter_clamp[s] = enter;
            double& free = server_free[s][j % stages[s].servers()];
            const double start = std::max({enter, free, start_clamp[s]});
            start_clamp[s] = start;
            acct[s].wait_us += start - enter;
            acct[s].occupancy_area_us += start - enter;
            ++acct[s].served;
            auto& heap = pending[s];
            while (!heap.empty() && heap.top() <= enter) heap.pop();
            acct[s].max_queue = std::max(acct[s].max_queue, heap.size() + 1);
            heap.push(start);
            const double service = stages[s].service_us(j, rng);
            const double done = start + service;
            acct[s].busy_us += service;
            free = done;
            ready = done;
        }
        const double latency = ready - arrival;
        latency_stats.add(latency);
        digest.add(latency);
        if (options.record_latencies) result.latencies_us.push_back(latency);
        result.makespan_us = std::max(result.makespan_us, ready);
    }
    result.jobs_completed = num_jobs;
    finalize(result, stages, acct, latency_stats, digest, options.record_latencies);
    return result;
}

// ---------------------------------------------------------------------------
// Bounded core: a lazily-evaluated chain of stage nodes, each pulling the
// stream from its upstream neighbour.  Memory is O(sum of buffer capacities),
// independent of the number of jobs.
// ---------------------------------------------------------------------------

/// One job moving along the chain: its stream index, its offered arrival
/// time (the latency baseline), and the time it left the emitting node.
struct job_event {
    std::size_t index = 0;
    double arrival_us = 0.0;
    double time_us = 0.0;
};

class node {
public:
    virtual ~node() = default;
    /// Next job leaving this node, in stream order; nullopt when drained.
    virtual std::optional<job_event> next() = 0;
    /// Backpressure hook (block policy): the job this node emitted most
    /// recently kept occupying its server until `until_us`, because the
    /// downstream buffer had no free slot before then.
    virtual void hold_last_server(double until_us) = 0;
};

/// Lazily generates the offered arrival stream.
class arrival_node final : public node {
public:
    arrival_node(std::size_t num_jobs, const arrival_process& arrivals, util::rng& rng)
        : num_jobs_(num_jobs), arrivals_(arrivals), rng_(&rng) {}

    std::optional<job_event> next() override {
        if (emitted_ == num_jobs_) return std::nullopt;
        if (emitted_ > 0) {
            time_us_ += arrivals_.poisson
                            ? -arrivals_.interarrival_us * std::log(1.0 - rng_->uniform())
                            : arrivals_.interarrival_us;
        }
        return job_event{emitted_++, time_us_, time_us_};
    }

    /// The source never blocks: under the block policy an offered job simply
    /// waits at the entrance until the first buffer admits it.
    void hold_last_server(double) override {}

private:
    std::size_t num_jobs_;
    arrival_process arrivals_;
    util::rng* rng_;
    std::size_t emitted_ = 0;
    double time_us_ = 0.0;
};

class stage_node final : public node {
public:
    stage_node(const stage& st, const sim_options& options, std::size_t num_jobs, node& upstream,
               util::rng& rng)
        : st_(&st),
          capacity_(options.buffer_capacity),
          policy_(options.policy),
          up_(&upstream),
          rng_(&rng),
          server_free_(st.servers(), 0.0),
          ring_(std::min(capacity_, std::max<std::size_t>(num_jobs, 1)), 0.0) {}

    std::optional<job_event> next() override {
        return policy_ == backpressure::block ? next_blocking() : next_dropping();
    }

    void hold_last_server(double until_us) override {
        double& free = server_free_[last_server_];
        free = std::max(free, until_us);
    }

    [[nodiscard]] const stage_accounting& accounting() const noexcept { return acct_; }

private:
    struct entry {
        std::size_t index = 0;
        double arrival_us = 0.0;
        double enter_us = 0.0;  ///< when the job entered this stage's buffer
    };

    // -- block policy: admit one job at a time, committing it immediately;
    //    admission time is bounded below by the slot freed when the job
    //    `capacity_` positions earlier entered service, and the upstream
    //    server is held until admission.
    std::optional<job_event> next_blocking() {
        if (queue_.empty()) {
            auto ev = up_->next();
            if (!ev) return std::nullopt;
            const double t = clamp_in(ev->time_us);
            const double slot_free =
                served_ >= capacity_ ? ring_[(served_ - capacity_) % ring_.size()] : 0.0;
            const double enter = std::max(t, slot_free);
            up_->hold_last_server(enter);
            while (!pending_starts_.empty() && pending_starts_.top() <= enter) {
                pending_starts_.pop();
            }
            acct_.max_queue = std::max(acct_.max_queue, pending_starts_.size() + 1);
            queue_.push_back({ev->index, ev->arrival_us, enter});
        }
        return commit_head();
    }

    // -- drop policies: pull every arrival that lands before the head enters
    //    service, applying the drop policy at a full buffer (which may evict
    //    the head under drop-oldest), then commit the surviving head.
    std::optional<job_event> next_dropping() {
        while (queue_.empty()) {
            auto ev = take_upstream();
            if (!ev) return std::nullopt;
            admit_dropping(*ev);
        }
        for (;;) {
            const double start = head_start();
            const job_event* peeked = peek_upstream();
            if (peeked == nullptr || std::max(peeked->time_us, in_clamp_) >= start) break;
            const auto ev = take_upstream();
            admit_dropping(*ev);
        }
        return commit_head();
    }

    void admit_dropping(const job_event& ev) {
        const double t = clamp_in(ev.time_us);
        if (queue_.size() == capacity_) {
            ++acct_.drops;
            if (policy_ == backpressure::drop_newest) return;
            acct_.occupancy_area_us += t - queue_.front().enter_us;
            queue_.pop_front();
        }
        queue_.push_back({ev.index, ev.arrival_us, t});
        acct_.max_queue = std::max(acct_.max_queue, queue_.size());
    }

    [[nodiscard]] double head_start() const {
        const std::size_t server = served_ % server_free_.size();
        return std::max({queue_.front().enter_us, server_free_[server], start_clamp_});
    }

    job_event commit_head() {
        const entry e = queue_.front();
        queue_.pop_front();
        const std::size_t server = served_ % server_free_.size();
        const double start = std::max({e.enter_us, server_free_[server], start_clamp_});
        start_clamp_ = start;
        const double service = st_->service_us(e.index, *rng_);
        const double done = start + service;
        acct_.busy_us += service;
        acct_.wait_us += start - e.enter_us;
        acct_.occupancy_area_us += start - e.enter_us;
        ++acct_.served;
        server_free_[server] = done;
        last_server_ = server;
        if (policy_ == backpressure::block) {
            pending_starts_.push(start);
            ring_[served_ % ring_.size()] = start;
        }
        ++served_;
        return {e.index, e.arrival_us, done};
    }

    /// In-order delivery: a job cannot be acted on before its predecessor
    /// arrived, so arrival times at this stage are monotonicised.
    double clamp_in(double time_us) {
        in_clamp_ = std::max(in_clamp_, time_us);
        return in_clamp_;
    }

    const job_event* peek_upstream() {
        if (!lookahead_) lookahead_ = up_->next();
        return lookahead_ ? &*lookahead_ : nullptr;
    }

    std::optional<job_event> take_upstream() {
        if (lookahead_) {
            auto ev = *lookahead_;
            lookahead_.reset();
            return ev;
        }
        return up_->next();
    }

    const stage* st_;
    std::size_t capacity_;
    backpressure policy_;
    node* up_;
    util::rng* rng_;
    std::vector<double> server_free_;
    std::vector<double> ring_;  ///< service-start times, for slot-free lookup
    std::deque<entry> queue_;
    std::optional<job_event> lookahead_;
    std::priority_queue<double, std::vector<double>, std::greater<>> pending_starts_;
    std::size_t served_ = 0;
    std::size_t last_server_ = 0;
    double in_clamp_ = 0.0;
    double start_clamp_ = 0.0;
    stage_accounting acct_;
};

simulation_result simulate_bounded(const std::vector<stage>& stages, std::size_t num_jobs,
                                   const arrival_process& arrivals, util::rng& rng,
                                   const sim_options& options) {
    arrival_node source(num_jobs, arrivals, rng);
    std::vector<std::unique_ptr<stage_node>> nodes;
    nodes.reserve(stages.size());
    node* tail = &source;
    for (const auto& st : stages) {
        nodes.push_back(std::make_unique<stage_node>(st, options, num_jobs, *tail, rng));
        tail = nodes.back().get();
    }

    simulation_result result;
    result.num_jobs = num_jobs;
    if (options.record_latencies) result.latencies_us.reserve(num_jobs);
    metrics::latency_digest digest;
    metrics::running_stats latency_stats;
    while (const auto ev = tail->next()) {
        const double latency = ev->time_us - ev->arrival_us;
        ++result.jobs_completed;
        latency_stats.add(latency);
        digest.add(latency);
        if (options.record_latencies) result.latencies_us.push_back(latency);
        result.makespan_us = std::max(result.makespan_us, ev->time_us);
    }

    std::vector<stage_accounting> acct;
    acct.reserve(nodes.size());
    for (const auto& n : nodes) acct.push_back(n->accounting());
    finalize(result, stages, acct, latency_stats, digest, options.record_latencies);
    return result;
}

// ---------------------------------------------------------------------------
// Closed-loop core: an event-driven simulator over the same stage vocabulary,
// because feedback (a completed job re-entering stage 0 as a retransmission)
// makes the stream cyclic — neither feed-forward recurrence above can express
// a job whose arrival time depends on a later job's departure.  See the
// header comment on simulate_closed_loop for the semantic contract.
// ---------------------------------------------------------------------------

constexpr double cl_inf = std::numeric_limits<double>::infinity();

/// One attempt traversing the chain.
struct cl_job {
    std::size_t frame = 0;
    std::size_t attempt = 0;
    std::size_t inject_seq = 0;  ///< global injection index (trace cycling)
    double offered_us = 0.0;     ///< arrival of attempt 0
    double injected_us = 0.0;    ///< entry of THIS attempt into the chain
    double enter_us = 0.0;       ///< admission into the current stage's buffer
};

/// Event kinds, processed at equal times in rank order: completions first
/// (they free slots and may block), then injections (they may evict a head
/// under drop-oldest), then service starts (they commit the head).
enum class cl_kind { done = 0, offered = 1, start = 2 };

struct cl_event {
    double time_us = 0.0;
    cl_kind kind = cl_kind::start;
    std::uint64_t seq = 0;  ///< FIFO tie-break: creation order is deterministic
    std::size_t stage = 0;
    std::uint64_t epoch = 0;       ///< start events: stale when != stage epoch
    std::size_t inject_seq = 0;    ///< done events: which active entry finished
};

struct cl_event_later {
    bool operator()(const cl_event& a, const cl_event& b) const {
        if (a.time_us != b.time_us) return a.time_us > b.time_us;
        if (a.kind != b.kind) return static_cast<int>(a.kind) > static_cast<int>(b.kind);
        return a.seq > b.seq;
    }
};

class cl_engine {
public:
    cl_engine(const std::vector<stage>& stages, std::size_t num_frames,
              const arrival_process& arrivals, util::rng& rng, const sim_options& options,
              const feedback_fn& feedback)
        : stages_(&stages),
          num_frames_(num_frames),
          arrivals_(arrivals),
          rng_(&rng),
          options_(options),
          feedback_(&feedback),
          state_(stages.size()) {
        for (std::size_t s = 0; s < stages.size(); ++s) {
            state_[s].st = &stages[s];
            state_[s].server_free.assign(stages[s].servers(), 0.0);
        }
        result_.num_jobs = 0;
        if (options_.record_latencies) result_.latencies_us.reserve(num_frames);
    }

    simulation_result run() {
        push_offered(0.0);
        while (!events_.empty()) {
            const cl_event ev = events_.top();
            events_.pop();
            switch (ev.kind) {
                case cl_kind::offered: on_offered(ev); break;
                case cl_kind::done: on_done(ev); break;
                case cl_kind::start: on_start(ev); break;
            }
        }
        std::vector<stage_accounting> acct;
        acct.reserve(state_.size());
        for (const auto& st : state_) acct.push_back(st.acct);
        finalize(result_, *stages_, acct, latency_stats_, digest_, options_.record_latencies);
        return std::move(result_);
    }

private:
    /// A job that entered service, in start (hand-off) order.
    struct cl_active {
        cl_job job;
        std::size_t server = 0;
        double done_us = 0.0;
        bool finished = false;
    };

    struct cl_stage_state {
        const stage* st = nullptr;
        std::deque<cl_job> waiting;        ///< admitted, not yet in service
        std::vector<double> server_free;   ///< release time; cl_inf while occupied
        std::deque<cl_active> active;      ///< in service / awaiting hand-off
        bool head_blocked = false;         ///< active front done, downstream full
        std::size_t served = 0;            ///< round-robin dispatch counter
        double last_start = 0.0;           ///< in-order dispatch clamp
        double in_clamp = 0.0;             ///< monotone admission clamp
        std::uint64_t epoch = 0;           ///< invalidates scheduled starts
        stage_accounting acct;
    };

    void push_event(double time_us, cl_kind kind, std::size_t stage_index, std::uint64_t epoch,
                    std::size_t inject_seq) {
        events_.push({time_us, kind, next_event_seq_++, stage_index, epoch, inject_seq});
    }

    void push_offered(double time_us) {
        if (offered_ == num_frames_) return;
        push_event(time_us, cl_kind::offered, 0, 0, 0);
    }

    void on_offered(const cl_event& ev) {
        cl_job job;
        job.frame = offered_++;
        job.offered_us = ev.time_us;
        job.inject_seq = next_inject_seq_++;
        inject(job, ev.time_us);
        if (offered_ < num_frames_) {
            const double gap = arrivals_.poisson
                                   ? -arrivals_.interarrival_us * std::log(1.0 - rng_->uniform())
                                   : arrivals_.interarrival_us;
            push_offered(ev.time_us + gap);
        }
    }

    /// Injection at stage 0 — an offered frame or a fed-back retransmission.
    void inject(cl_job job, double t) {
        job.injected_us = t;
        ++result_.num_jobs;
        auto& st = state_[0];
        if (st.waiting.size() >= options_.buffer_capacity) {
            if (options_.policy == backpressure::block) {
                entrance_.push_back(job);  // the source never blocks; it queues
                return;
            }
            if (options_.policy == backpressure::drop_newest) {
                ++st.acct.drops;
                return;
            }
            evict_oldest(0, t);
        }
        enter_stage(0, job, t);
    }

    /// Hand-off arrival at an interior stage (s >= 1).  Under block the
    /// caller verified space; under the drop policies the policy applies.
    void handoff_arrive(std::size_t s, cl_job job, double t) {
        auto& st = state_[s];
        if (st.waiting.size() >= options_.buffer_capacity) {
            if (options_.policy == backpressure::drop_newest) {
                ++st.acct.drops;
                return;
            }
            evict_oldest(s, t);
        }
        enter_stage(s, job, t);
    }

    void evict_oldest(std::size_t s, double t) {
        auto& st = state_[s];
        const cl_job victim = st.waiting.front();
        st.waiting.pop_front();
        ++st.acct.drops;
        st.acct.occupancy_area_us += t - victim.enter_us;
    }

    void enter_stage(std::size_t s, cl_job job, double t) {
        auto& st = state_[s];
        st.in_clamp = std::max(st.in_clamp, t);
        job.enter_us = st.in_clamp;
        st.waiting.push_back(job);
        st.acct.max_queue = std::max(st.acct.max_queue, st.waiting.size());
        schedule_head(s);
    }

    /// (Re)schedules the service start of stage s's head, invalidating any
    /// outstanding start event.  A head whose designated round-robin server
    /// is still occupied is rescheduled when that server releases.
    void schedule_head(std::size_t s) {
        auto& st = state_[s];
        ++st.epoch;
        if (st.waiting.empty()) return;
        const std::size_t k = st.served % st.server_free.size();
        const double start =
            std::max({st.waiting.front().enter_us, st.server_free[k], st.last_start});
        if (!std::isfinite(start)) return;
        push_event(start, cl_kind::start, s, st.epoch, 0);
    }

    void on_start(const cl_event& ev) {
        auto& st = state_[ev.stage];
        if (ev.epoch != st.epoch) return;  // superseded
        cl_job job = st.waiting.front();
        st.waiting.pop_front();
        const std::size_t k = st.served % st.server_free.size();
        const double start = std::max({job.enter_us, st.server_free[k], st.last_start});
        st.last_start = start;
        ++st.served;
        const double service = st.st->service_us(job.inject_seq, *rng_);
        const double done = start + service;
        st.acct.busy_us += service;
        st.acct.wait_us += start - job.enter_us;
        st.acct.occupancy_area_us += start - job.enter_us;
        ++st.acct.served;
        st.server_free[k] = cl_inf;  // occupied until the job hands off
        st.active.push_back({job, k, done, false});
        push_event(done, cl_kind::done, ev.stage, 0, job.inject_seq);
        admit_released_slot(ev.stage, start);  // the head's waiting slot freed
        schedule_head(ev.stage);
    }

    /// A waiting slot freed at stage s at time t (its head entered service):
    /// under block, admit the longest-waiting excluded job — the upstream
    /// blocked hand-off, or an entrance-queued injection at stage 0.
    void admit_released_slot(std::size_t s, double t) {
        if (options_.policy != backpressure::block) return;
        if (s == 0) {
            if (entrance_.empty()) return;
            const cl_job job = entrance_.front();
            entrance_.pop_front();
            enter_stage(0, job, t);
            return;
        }
        auto& up = state_[s - 1];
        if (!up.head_blocked) return;
        up.head_blocked = false;
        flush(s - 1, t);  // retries the delayed hand-off, now with space
    }

    void on_done(const cl_event& ev) {
        auto& st = state_[ev.stage];
        for (auto& entry : st.active) {
            if (entry.job.inject_seq == ev.inject_seq) {
                entry.finished = true;
                break;
            }
        }
        flush(ev.stage, ev.time_us);
    }

    /// Hands finished jobs downstream in service-start order (in-order
    /// delivery).  All hand-offs happen at the current event time; a full
    /// downstream buffer under block parks the front and holds its server.
    void flush(std::size_t s, double now) {
        auto& st = state_[s];
        while (!st.active.empty() && st.active.front().finished && !st.head_blocked) {
            if (s + 1 < state_.size() && options_.policy == backpressure::block &&
                state_[s + 1].waiting.size() >= options_.buffer_capacity) {
                st.head_blocked = true;
                return;
            }
            const cl_active entry = st.active.front();
            st.active.pop_front();
            st.server_free[entry.server] = now;
            schedule_head(s);
            if (s + 1 < state_.size()) {
                handoff_arrive(s + 1, entry.job, now);
            } else {
                complete(entry.job, now);
            }
        }
    }

    void complete(const cl_job& job, double t) {
        ++result_.jobs_completed;
        const double latency = t - job.injected_us;
        latency_stats_.add(latency);
        digest_.add(latency);
        if (options_.record_latencies) result_.latencies_us.push_back(latency);
        result_.makespan_us = std::max(result_.makespan_us, t);
        const bool reenter =
            *feedback_ && (*feedback_)({job.frame, job.attempt, job.offered_us,
                                        job.injected_us, t});
        if (reenter) {
            cl_job retx;
            retx.frame = job.frame;
            retx.attempt = job.attempt + 1;
            retx.inject_seq = next_inject_seq_++;
            retx.offered_us = job.offered_us;
            inject(retx, t);
        }
    }

    const std::vector<stage>* stages_;
    std::size_t num_frames_;
    arrival_process arrivals_;
    util::rng* rng_;
    sim_options options_;
    const feedback_fn* feedback_;
    std::vector<cl_stage_state> state_;
    std::deque<cl_job> entrance_;  ///< injections awaiting a first-buffer slot (block)
    std::priority_queue<cl_event, std::vector<cl_event>, cl_event_later> events_;
    std::uint64_t next_event_seq_ = 0;
    std::size_t next_inject_seq_ = 0;
    std::size_t offered_ = 0;
    simulation_result result_;
    metrics::latency_digest digest_;
    metrics::running_stats latency_stats_;
};

}  // namespace

simulation_result simulate_closed_loop(const std::vector<stage>& stages, std::size_t num_frames,
                                       const arrival_process& arrivals, util::rng& rng,
                                       const sim_options& options, const feedback_fn& feedback) {
    if (stages.empty()) throw std::invalid_argument("simulate_closed_loop: no stages");
    if (num_frames == 0) throw std::invalid_argument("simulate_closed_loop: no jobs");
    if (arrivals.interarrival_us <= 0.0) {
        throw std::invalid_argument("simulate_closed_loop: bad interarrival");
    }
    if (options.buffer_capacity == 0) {
        throw std::invalid_argument(
            "simulate_closed_loop: buffer capacity 0 can never admit work; use a capacity >= 1 "
            "or pipeline::unbounded_capacity");
    }
    return cl_engine(stages, num_frames, arrivals, rng, options, feedback).run();
}

simulation_result simulate(const std::vector<stage>& stages, std::size_t num_jobs,
                           const arrival_process& arrivals, util::rng& rng,
                           const sim_options& options) {
    if (stages.empty()) throw std::invalid_argument("simulate: no stages");
    if (num_jobs == 0) throw std::invalid_argument("simulate: no jobs");
    if (arrivals.interarrival_us <= 0.0) throw std::invalid_argument("simulate: bad interarrival");
    if (options.buffer_capacity == 0) {
        throw std::invalid_argument(
            "simulate: buffer capacity 0 can never admit work; use a capacity >= 1 or "
            "pipeline::unbounded_capacity");
    }
    return options.buffer_capacity == unbounded_capacity
               ? simulate_unbounded(stages, num_jobs, arrivals, rng, options)
               : simulate_bounded(stages, num_jobs, arrivals, rng, options);
}

util::table summary_table(const simulation_result& result,
                          const std::vector<std::string>& stage_names) {
    const std::size_t k = result.stage_utilization.size();
    if (!stage_names.empty() && stage_names.size() != k) {
        throw std::invalid_argument("summary_table: stage_names arity mismatch");
    }
    const auto stage_label = [&](std::size_t s) {
        return stage_names.empty() ? "stage " + std::to_string(s) : stage_names[s];
    };

    util::table t({"metric", "value"});
    t.add("channel uses", result.num_jobs);
    t.add("completed", result.jobs_completed);
    t.add("dropped", result.jobs_dropped);
    t.add("drop rate", util::format_double(result.drop_rate, 5));
    t.add("makespan us", result.makespan_us);
    t.add("throughput use/ms", result.throughput_per_us * 1000.0);
    t.add("mean latency us", result.mean_latency_us);
    t.add("p50 latency us", result.p50_latency_us);
    t.add("p99 latency us", result.p99_latency_us);
    t.add("max latency us", result.max_latency_us);
    for (std::size_t s = 0; s < k; ++s) {
        t.add("utilization " + stage_label(s),
              util::format_double(result.stage_utilization[s], 3));
        t.add("queue wait us " + stage_label(s),
              util::format_double(result.mean_queue_wait_us[s], 3));
        t.add("mean queue len " + stage_label(s),
              util::format_double(result.mean_queue_len[s], 3));
        t.add("max queue len " + stage_label(s), result.max_queue_len[s]);
        t.add("drops " + stage_label(s), result.stage_drops[s]);
    }
    return t;
}

std::vector<stage> make_hybrid_stages(double classical_us, double schedule_duration_us,
                                      std::size_t reads_per_use, double programming_us,
                                      std::size_t quantum_devices) {
    if (schedule_duration_us <= 0.0 || reads_per_use == 0 || quantum_devices == 0) {
        throw std::invalid_argument("make_hybrid_stages: bad quantum stage parameters");
    }
    const double quantum_us =
        programming_us + schedule_duration_us * static_cast<double>(reads_per_use);
    std::vector<stage> stages;
    stages.push_back(stage::constant("classical", classical_us));
    stages.push_back(stage::constant("quantum", quantum_us).with_servers(quantum_devices));
    return stages;
}

}  // namespace hcq::pipeline
