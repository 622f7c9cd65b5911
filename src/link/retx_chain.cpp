// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "link/retx_chain.h"

#include <algorithm>

#include "util/timer.h"
#include "wireless/soft.h"

namespace hcq::link {
namespace {

// A retransmission goes back on the air one channel use after the attempt
// it repeats: attempt r of use u sees the fading process at
// t = u + r * retx_lag_uses.  At low Doppler (coherence time >> 1 use) a
// frame that failed in a deep fade therefore RETRIES inside the same fade —
// the retransmission-concentration behaviour the acceptance scenario
// measures — while at high Doppler the retry sees a fresh channel.
constexpr double retx_lag_uses = 1.0;

}  // namespace

llr_decoder::llr_decoder(const fec::code_spec& spec, arq::combining_mode combining,
                         std::size_t bits_per_use)
    : codec_(spec), chase_(combining == arq::combining_mode::chase), bits_per_use_(bits_per_use) {
    llrs_.resize(codec_.coded_bits());
}

void llr_decoder::begin(const qubo::bit_vector& info, qubo::bit_vector& decoded0) {
    info_ = &info;
    decoded0_ = &decoded0;
}

void llr_decoder::add_use(std::size_t j, const wireless::mimo_instance& /*instance*/,
                          const paths::path_result& result) {
    const std::size_t lo = j * bits_per_use_;
    const std::size_t n = std::min(bits_per_use_, llrs_.size() - lo);
    std::copy(result.llrs.begin(), result.llrs.begin() + static_cast<std::ptrdiff_t>(n),
              llrs_.begin() + static_cast<std::ptrdiff_t>(lo));
}

bool llr_decoder::decode(std::size_t attempt) {
    if (attempt == 0) {
        codec_.decode_frame(llrs_, *decoded0_);
        if (chase_) combined_ = llrs_;  // copy-assign: reuses capacity
        return *decoded0_ == *info_;
    }
    if (chase_) {
        wireless::accumulate_llrs(llrs_, combined_);
        codec_.decode_frame(combined_, decoded_);
    } else {
        codec_.decode_frame(llrs_, decoded_);
    }
    return decoded_ == *info_;
}

void pad_use_bits(std::span<const std::uint8_t> coded, std::size_t j, std::size_t bits_per_use,
                  std::vector<std::uint8_t>& out) {
    out.assign(bits_per_use, 0);
    const std::size_t lo = j * bits_per_use;
    const std::size_t n = std::min(bits_per_use, coded.size() - lo);
    std::copy(coded.begin() + static_cast<std::ptrdiff_t>(lo),
              coded.begin() + static_cast<std::ptrdiff_t>(lo + n), out.begin());
}

retx_chain::retx_chain(const retx_setup& setup)
    : setup_(&setup),
      max_retx_(setup.arq ? setup.arq->max_retx : 0),
      uses_(setup.uses_per_frame * max_retx_) {}

void retx_chain::begin_frame(std::uint64_t first_use, std::span<const std::uint8_t> coded_bits) {
    first_use_ = first_use;
    coded_bits_ = coded_bits;
    for (retx_use& use : uses_) {
        use.synthesized = false;
        use.reduced = false;
    }
}

const retx_chain::retx_use& retx_chain::use_for(std::size_t j, std::size_t attempt, bool reduce,
                                                paths::workspace& ws) {
    retx_use& use = uses_[j * max_retx_ + (attempt - 1)];
    if (!use.synthesized) {
        const retx_setup& s = *setup_;
        const std::uint64_t u = first_use_ + j;
        util::rng synth_rng = s.synth_base.derive(u).derive(attempt);
        std::span<const std::uint8_t> bits;
        if (!coded_bits_.empty()) {
            pad_use_bits(coded_bits_, j, s.mimo.num_users * wireless::bits_per_symbol(s.mimo.mod),
                         use_bits_);
            bits = use_bits_;
        }
        if (s.process != nullptr) {
            const double t = static_cast<double>(u) + static_cast<double>(attempt) * retx_lag_uses;
            wireless::synthesize_at_coded_into(synth_rng, s.mimo, *s.process, t, s.csi_est_err,
                                               bits, use.instance);
        } else {
            wireless::synthesize_coded_into(synth_rng, s.mimo, bits, use.instance);
        }
        use.synthesized = true;
    }
    if (reduce && !use.reduced) {
        const util::timer clock;
        detect::ml_to_qubo_into(use.instance, ws.detect.qubo, use.mq);
        use.reduce_us = clock.elapsed_us();
        use.reduced = true;
    }
    return use;
}

void retx_chain::run(const paths::detection_path& path, std::size_t p,
                     std::span<const wireless::mimo_instance> instances,
                     std::span<const paths::path_result> first, frame_decoder& decoder,
                     paths::workspace& ws, frame_outcome& out) {
    for (std::size_t j = 0; j < instances.size(); ++j) decoder.add_use(j, instances[j], first[j]);
    bool ok = decoder.decode(0);
    out.first_ok = ok;
    out.wrong = ok ? 0 : 1;
    out.retx_service_us.clear();  // keeps capacity across windows

    const retx_setup& s = *setup_;
    const bool wants_qubo = path.needs_qubo();
    std::size_t attempt = 0;
    while (s.arq && arq::needs_retx(*s.arq, ok, attempt)) {
        ++attempt;
        double service_us = 0.0;
        for (std::size_t j = 0; j < s.uses_per_frame; ++j) {
            const retx_use& use = use_for(j, attempt, wants_qubo, ws);
            if (wants_qubo) service_us += use.reduce_us;
            const std::uint64_t u = first_use_ + j;
            util::rng solve_rng = s.solve_base.derive(u * s.num_paths + p).derive(attempt);
            const paths::path_context ctx{use.instance, wants_qubo ? &use.mq : nullptr, solve_rng,
                                          &ws};
            path.run_block(std::span<const paths::path_context>(&ctx, 1),
                           std::span<paths::path_result>(&result_, 1));
            if (decoder.needs_llrs()) path.soft_output(ctx, result_);
            for (const auto& stage : result_.stages) service_us += stage.service_us;
            decoder.add_use(j, use.instance, result_);
        }
        ok = decoder.decode(attempt);
        if (!ok) ++out.wrong;
        out.retx_service_us.push_back(service_us);
    }
    out.attempts = attempt + 1;
    out.final_ok = ok;
}

}  // namespace hcq::link
