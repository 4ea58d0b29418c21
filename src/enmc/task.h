/**
 * @file
 * The classification work assigned to one ENMC rank.
 *
 * Categories are partitioned across ranks; each rank screens its slice of
 * the (quantized) screener weight matrix, filters candidates, and computes
 * accurate logits from its slice of the full classifier.
 *
 * A task can be *functional* (tensor payloads attached: the rank computes
 * real numbers, bit-matching the reference pipeline) or *timing-only*
 * (payloads null: candidate counts are synthesized from
 * `expected_candidates`, which is how full-scale workloads with hundreds
 * of millions of rows are simulated).
 */

#ifndef ENMC_ENMC_TASK_H
#define ENMC_ENMC_TASK_H

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "fault/injector.h"
#include "tensor/matrix.h"
#include "tensor/quantize.h"

namespace enmc::arch {

/** Rank-local memory layout + dimensions of one classification call. */
struct RankTask
{
    // --- dimensions (this rank's slice) ---
    uint64_t categories = 0;       //!< rows assigned to this rank
    uint64_t hidden = 0;           //!< d
    uint64_t reduced = 0;          //!< k
    tensor::QuantBits quant = tensor::QuantBits::Int4;
    uint64_t batch = 1;
    bool sigmoid = false;          //!< normalization selector
    /** Per-item candidate count for timing-only simulation. */
    uint64_t expected_candidates = 0;
    float threshold = 0.0f;        //!< FILTER threshold

    // --- fault model (null / default => pristine memory) ---
    /** Seeded fault stream for this rank's reads; not owned. */
    fault::FaultInjector *injector = nullptr;
    /** Global rank id, used for stuck-rank lookup in the fault config. */
    uint32_t rank_index = 0;

    // --- rank-local address layout ---
    Addr screen_weight_base = 0;
    Addr class_weight_base = 0;
    Addr bias_base = 0;
    Addr feature_base = 0;
    Addr output_base = 0;

    // --- functional payloads (null => timing-only) ---
    // The rank reads this slice's rows in place: rows [row_offset,
    // row_offset + categories) of each matrix and bias below. Its logits
    // and candidate ids stay slice-local.
    /** Quantized screener weights. */
    const tensor::QuantizedMatrix *screen_weights = nullptr;
    /** Screener bias b~. */
    const tensor::Vector *screen_bias = nullptr;
    /** Full-precision classifier weights. */
    const tensor::Matrix *class_weights = nullptr;
    /** Full classifier bias. */
    const tensor::Vector *class_bias = nullptr;
    /** First payload row of this slice. */
    uint64_t row_offset = 0;
    /** Per-item quantized projected features y_q (length k each). */
    std::vector<tensor::QuantizedVector> features_q;
    /** Per-item raw hidden vectors h (length d each). */
    std::vector<tensor::Vector> features;

    bool functional() const { return screen_weights != nullptr; }

    /** Bytes of one screener weight row at the task's quantization. */
    uint64_t screenRowBytes() const;

    /** Bytes of one full-precision classifier row. */
    uint64_t classRowBytes() const { return hidden * sizeof(float); }
};

/** Results and statistics of one rank execution. */
struct RankResult
{
    Cycles cycles = 0;                 //!< DRAM command-clock cycles
    uint64_t instructions = 0;         //!< decoded by the controller
    uint64_t generated_instructions = 0; //!< emitted by the inst generator
    uint64_t screen_bytes = 0;         //!< screener weight traffic
    uint64_t exec_bytes = 0;           //!< executor row traffic
    uint64_t output_bytes = 0;         //!< results returned to host
    Cycles screener_busy = 0;          //!< MAC-array busy (DRAM cycles)
    Cycles executor_busy = 0;
    uint64_t candidates = 0;           //!< total across batch

    // DRAM command activity (for the energy model, Fig. 14).
    uint64_t dram_reads = 0;           //!< RD bursts issued
    uint64_t dram_writes = 0;          //!< WR bursts issued
    uint64_t dram_acts = 0;            //!< ACT commands issued
    uint64_t dram_refs = 0;            //!< REF commands issued

    // Peak SRAM occupancies (capacity proofs for Table 3's buffers).
    uint64_t peak_weight_buf = 0;
    uint64_t peak_psum_buf = 0;
    uint64_t peak_exec_buf = 0;
    uint64_t peak_output_buf = 0;

    // Fault/ECC activity observed by this rank (all zero without an
    // injector).
    /** Injector counter deltas attributable to this run. */
    fault::FaultCounters faults;
    /** Detected-uncorrectable words that reached the compute units. */
    uint64_t uncorrectable_words = 0;
    /** Uncorrectable words on the weak path (screener tiles/features). */
    uint64_t uncorrectable_weak_words = 0;
    /** Uncorrectable words on the strong path (FP32 executor rows). */
    uint64_t uncorrectable_strong_words = 0;
    /** Extra bursts the DRAM controller spent fetching ECC check bits. */
    uint64_t ecc_redundancy_reads = 0;
    /** Syndrome-decode cycles the DRAM controller charged to reads. */
    uint64_t ecc_decode_cycles = 0;
    /** Candidates left with their approximate logit (degraded mode). */
    uint64_t degraded_candidates = 0;
    /** Slice re-executions the resilience policy performed. */
    uint64_t fault_retries = 0;

    // Functional outputs (empty for timing-only runs).
    /** Mixed logits per batch item over this rank's slice. */
    std::vector<tensor::Vector> logits;
    /** Candidate indices (slice-local) per batch item. */
    std::vector<std::vector<uint32_t>> candidate_ids;
};

} // namespace enmc::arch

#endif // ENMC_ENMC_TASK_H
