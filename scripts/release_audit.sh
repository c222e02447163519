#!/usr/bin/env bash
# Release-profile audit: the oracles whose correctness arguments an
# optimiser could break, run once in the profile the artifacts ship in.
#
# The greedy kernel's and the planar row kernel's correctness arguments are
# about float compares and row order, the path-reading delivery's about
# float operation order, the delivery engine's golden digest's about RNG
# draw and float order, the one-hop rule's about a distance tolerance, the
# suffix splice's about the greedy kernel's float compares, the flat zone
# walk's about compares at split midpoints, the Hilbert storage order's
# about ties broken by id, and the busy-time and energy derivations (sends
# × service time, sends and receives × radio cost) about float order — so
# their oracles, the epoch-triage oracle, the transport equivalence
# suite and the latency replay run here.
#
# Usage:
#   ./scripts/release_audit.sh        # from anywhere in the repository
# Called by ./scripts/check.sh and .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release -q -p pool-netsim --lib -- \
    storage_order_is_unobservable
cargo test --release -q -p pool-gpsr --lib -- \
    kernel_matches_reference_scan \
    gathered_rows_equal_the_reference_kernel \
    routes_map_through_id_permutations \
    splicing_the_rest_of_the_route_changes_no_hop
cargo test --release -q -p pool-core --lib -- \
    untouched_cells_stay_put_exactly_as_the_full_walk_leaves_them \
    splitter_rows_agree_with_the_per_cell_lookup_through_churn
cargo test --release -q -p pool-transport --lib -- \
    path_timers_match_the_hop_vector_reference_bit_for_bit \
    reversed_charge_equals_charging_the_reversed_path \
    golden_delivery_digest \
    neighbour_bypass_matches_gpsr_on_every_adjacent_pair \
    spliced_routes_match_fresh_gpsr
cargo test --release -q -p pool-dim --lib -- \
    flat_walk_matches_brute_force_over_every_zone
cargo test --release -q --test transport_equivalence
cargo test --release -q --test sim_replay
