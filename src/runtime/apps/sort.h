/**
 * @file
 * Encrypted bitonic sorting as a runtime graph (Table 6 app).
 *
 * Sorts independent blocks of 2^log_elements values packed
 * consecutively in the slots, every block ascending, via the 2-way
 * bitonic network's k(k+1)/2 masked compare-exchange stages. Per
 * stage, for slot i with partner at distance d:
 *
 *   partner = mask_lo * rot(v,+d) + mask_hi * rot(v,-d)
 *   s = v + partner;  dif = v - partner
 *   sg = sign(dif/2)   -- sign_rounds iterations of the composite-
 *                         minimax g-kernel g(x) = 1.5x - 0.5x^3 [42]
 *   v' = 0.5*s + select * (sg * dif)    (select = +-0.5 direction
 *                                        mask: -0.5 keeps the min)
 *
 * The sign iterate refreshes independently mid-polynomial; the carried
 * value refreshes at stage entry (level < 4) and the sign output
 * before the select (level < 3). The paper() configuration is Table
 * 6's circuit: its lowered trace is pinned by a golden fixture in
 * tests/runtime/test_apps_pin.cpp.
 *
 * Exactness: on inputs drawn from the grid {-0.75,-0.25,0.25,0.75}
 * the sign polynomial saturates to +-1 within ~4e-4, so rounding the
 * decrypted output back to the grid reproduces the exact sorted order
 * (the documented accuracy methodology for Table 6's sorting row).
 */
#pragma once

#include <vector>

#include "runtime/graph.h"

namespace bts::runtime::apps {

struct SortConfig
{
    int log_elements = 14; //!< block size 2^k, k(k+1)/2 stages
    int sign_rounds = 8;   //!< g-kernel iterations per comparison
    /** Run the pass pipeline on the built graph (handles remapped);
     *  the simulated figures and golden fixtures set this false. */
    bool optimize = true;

    /** Table 6 scale: 2^14 elements, 8 sign rounds per stage. */
    static SortConfig paper();
    /** Functional scale: blocks of 4 values, enough sign rounds to
     *  saturate on grid-spaced inputs. */
    static SortConfig functional();
};

struct SortApp
{
    /** Per-stage plaintext mask handles (bind with the helpers
     *  below, using the stage's recorded distance / phase). */
    struct Stage
    {
        int phase = 0;    //!< bitonic phase j (direction bit)
        int distance = 0; //!< partner distance d
        Value mask_lo;    //!< selects rot(v,+d) where (i & d) == 0
        Value mask_hi;    //!< selects rot(v,-d) on the complement
        Value select;     //!< +-0.5 direction mask
    };

    Graph graph;
    Value values; //!< ct input @ traits.bootstrap_out_level
    std::vector<Stage> stages;
};

/** Build the sorting graph; throws std::invalid_argument when the
 *  refreshed budget cannot fit a compare-exchange stage. */
SortApp build_sort(const SortConfig& cfg, const GraphTraits& traits);

/** @return mask_lo for a stage: 1 at slots whose block-local index
 *  has bit d clear (their partner sits at +d), else 0. */
std::vector<Complex> sort_mask_lo(int log_elements, int distance,
                                  std::size_t slots);
/** Complement of sort_mask_lo (partner at -d). */
std::vector<Complex> sort_mask_hi(int log_elements, int distance,
                                  std::size_t slots);
/** The +-0.5 select mask: -0.5 where the slot keeps the pair minimum
 *  (ascending blocks; descending sub-runs flip via @p phase's
 *  direction bit). */
std::vector<Complex> sort_select_mask(int log_elements, int phase,
                                      int distance, std::size_t slots);

} // namespace bts::runtime::apps
