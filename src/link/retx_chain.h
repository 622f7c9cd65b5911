// The retransmission chain of the streaming link simulator (link_sim.h):
// one implementation for the uncoded and the coded link.
//
// A frame is `uses_per_frame` consecutive channel uses; the uncoded link is
// the one-use frame with no coded bits.  A frame whose decode fails goes
// back on the air, up to arq_config::max_retx times.  A retransmission is a
// REAL re-send: attempt r of the frame's use u is a fresh channel use drawn
// from rng(seed).derive(arq_synthesis).derive(u).derive(r) (carrying the
// frame's coded bits when it has any; under correlated fading the SAME
// frozen process, one lag later per attempt) and re-detected with
// rng(seed).derive(arq_solve).derive(u * num_paths + p).derive(r).  Both
// streams are indexed globally, so the chain's counters are invariant to
// threads and window size, and disjoint from the open-loop streams, so
// enabling ARQ never perturbs the open-loop statistics.
//
// The uncoded and coded links differ only in the decode step
// (frame_decoder): a bits comparison, or LLR gathering plus a chase-
// combined or plain soft-Viterbi decode.  A retransmitted use is the same
// for every path of a frame, so a retx_chain memoises its synthesis and
// QUBO reduction per (use, attempt) across the paths it runs for the
// current frame; each path's service still counts the reduction time its
// own pipeline would spend.  One retx_chain per worker: once warm, running a
// chain performs no heap allocation.
#ifndef HCQ_LINK_RETX_CHAIN_H
#define HCQ_LINK_RETX_CHAIN_H

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "arq/arq.h"
#include "detect/transform.h"
#include "fec/codec.h"
#include "paths/detection_path.h"
#include "paths/workspace.h"
#include "util/rng.h"
#include "wireless/channel_spec.h"
#include "wireless/mimo.h"

namespace hcq::link {

/// Outcome of one (frame, path): the attempt-0 decode plus the chain.
struct frame_outcome {
    qubo::bit_vector decoded0;  ///< coded link: attempt-0 decoded information bits
    std::size_t attempts = 1;   ///< transmissions incl. retransmissions
    std::size_t wrong = 0;      ///< attempts whose decode came out wrong
    bool first_ok = true;
    bool final_ok = true;
    std::vector<double> retx_service_us;  ///< measured service per retransmission
};

/// The decode step of a chain: collects one attempt's per-use detections,
/// then judges the whole frame.
class frame_decoder {
public:
    virtual ~frame_decoder() = default;

    /// True when the step reads per-bit LLRs; the chain then calls the
    /// path's soft_output on every retransmitted use.
    [[nodiscard]] virtual bool needs_llrs() const noexcept = 0;

    /// Collects use j of the current attempt.
    virtual void add_use(std::size_t j, const wireless::mimo_instance& instance,
                         const paths::path_result& result) = 0;

    /// Judges attempt `attempt` from the uses collected since the previous
    /// call; true when the frame came out right.
    virtual bool decode(std::size_t attempt) = 0;
};

/// Uncoded decode step: an attempt is right when every use's detected bits
/// equal its transmitted bits.
class bits_decoder final : public frame_decoder {
public:
    [[nodiscard]] bool needs_llrs() const noexcept override { return false; }
    void add_use(std::size_t /*j*/, const wireless::mimo_instance& instance,
                 const paths::path_result& result) override {
        ok_ = ok_ && result.bits == instance.tx_bits;
    }
    bool decode(std::size_t /*attempt*/) override { return std::exchange(ok_, true); }

private:
    bool ok_ = true;
};

/// Coded decode step: gathers the frame's per-use LLRs (dropping the final
/// use's zero padding), soft-Viterbi decodes them and compares the result
/// with the frame's information bits.  With chase combining, each
/// retransmission's clamped LLRs accumulate onto the earlier attempts'
/// before decoding; plain decodes each attempt alone.  The decode is a pure
/// function of the LLRs and combining follows the attempt order, so coded
/// counters inherit the chain's invariances.
class llr_decoder final : public frame_decoder {
public:
    llr_decoder(const fec::code_spec& spec, arq::combining_mode combining,
                std::size_t bits_per_use);

    /// The decoder's codec, which the link also encodes its frames with.
    [[nodiscard]] fec::codec& codec() noexcept { return codec_; }

    /// Points the decoder at the next (frame, path): the frame's information
    /// bits, and where attempt 0's decoded bits go.
    void begin(const qubo::bit_vector& info, qubo::bit_vector& decoded0);

    [[nodiscard]] bool needs_llrs() const noexcept override { return true; }
    void add_use(std::size_t j, const wireless::mimo_instance& instance,
                 const paths::path_result& result) override;
    bool decode(std::size_t attempt) override;

private:
    fec::codec codec_;
    bool chase_;
    std::size_t bits_per_use_;
    const qubo::bit_vector* info_ = nullptr;
    qubo::bit_vector* decoded0_ = nullptr;
    std::vector<double> llrs_;       ///< the current attempt's frame LLRs
    std::vector<double> combined_;   ///< chase-combining accumulator
    qubo::bit_vector decoded_;       ///< retransmission decode scratch
};

/// Coded bits of use `j` of a frame, zero-padded to a whole channel use (the
/// final use of a frame may carry fewer than bits_per_use coded bits).
void pad_use_bits(std::span<const std::uint8_t> coded, std::size_t j, std::size_t bits_per_use,
                  std::vector<std::uint8_t>& out);

/// What every chain of one link run shares, fixed for the run.
struct retx_setup {
    wireless::mimo_config mimo;
    /// Correlated-fading process, or nullptr for i.i.d. `mimo.channel` draws.
    const wireless::channel_process* process = nullptr;
    double csi_est_err = 0.0;  ///< imperfect-CSI estimation-error variance
    util::rng synth_base;      ///< rng(seed).derive(stream_domains::arq_synthesis)
    util::rng solve_base;      ///< rng(seed).derive(stream_domains::arq_solve)
    std::size_t num_paths = 1;
    std::size_t uses_per_frame = 1;
    std::optional<arq::arq_config> arq;  ///< nullopt: attempt 0 only, no retransmission
};

/// One worker's retransmission chain.  `setup` must outlive it.
class retx_chain {
public:
    explicit retx_chain(const retx_setup& setup);

    /// Starts the frame whose first use has global index `first_use`;
    /// `coded_bits` are its coded bits (empty for the uncoded link, and
    /// referenced, not copied, until the next begin_frame).  Forgets the
    /// previous frame's retransmitted uses.
    void begin_frame(std::uint64_t first_use, std::span<const std::uint8_t> coded_bits);

    /// Runs path `p` through the current frame: decodes attempt 0 from the
    /// frame's open-loop uses and their detections (`instances`, `first`, in
    /// use order; `first` carries LLRs when the decoder needs them), then
    /// retransmits while arq::needs_retx asks for it.
    void run(const paths::detection_path& path, std::size_t p,
             std::span<const wireless::mimo_instance> instances,
             std::span<const paths::path_result> first, frame_decoder& decoder,
             paths::workspace& ws, frame_outcome& out);

private:
    /// One retransmitted channel use, memoised across the frame's paths.
    struct retx_use {
        wireless::mimo_instance instance;
        detect::ml_qubo mq;
        double reduce_us = 0.0;
        bool synthesized = false;
        bool reduced = false;
    };

    const retx_use& use_for(std::size_t j, std::size_t attempt, bool reduce,
                            paths::workspace& ws);

    const retx_setup* setup_;
    std::size_t max_retx_;
    std::vector<retx_use> uses_;  ///< [j * max_retx + attempt - 1]
    std::uint64_t first_use_ = 0;
    std::span<const std::uint8_t> coded_bits_;
    std::vector<std::uint8_t> use_bits_;
    paths::path_result result_;
};

}  // namespace hcq::link

#endif  // HCQ_LINK_RETX_CHAIN_H
