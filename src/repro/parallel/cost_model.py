"""The virtual-time cost model of the simulated multiprocessor.

The paper's run-times were measured on a 375 MHz Power3 IBM SP with MPI.
This host cannot reproduce those absolute numbers (one core, Python), so
the scaling experiments (Table 3, Fig. 6, Fig. 8) run on a deterministic
discrete-event simulation that executes the *real* algorithm — real pair
generation, real alignments, real cluster updates — while charging each
operation a virtual cost from this model.  Constants are calibrated to the
magnitudes the paper reports (e.g. GST construction of 20,000 ESTs ≈ 180 s
on 8 processors ⇒ ≈ 0.14 µs per suffix character scanned; alignment ≈ a
few ms each at ~0.15 µs per DP cell; MPI latency ≈ 50 µs), so simulated
component breakdowns land in the same regime as Table 3.

Every quantity fed to the model (suffix counts, DP cells, message sizes)
is measured from the actual run, not assumed — only the per-unit costs
are modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Per-operation virtual costs, in seconds."""

    # --- computation ----------------------------------------------------
    #: Per character scanned during bucket-tree construction (§3.1's
    #: O(N l / p) character-at-a-time algorithm).
    gst_char_cost: float = 0.14e-6
    #: Per suffix during the initial bucketing scan.
    partition_suffix_cost: float = 0.02e-6
    #: Per node during the decreasing-string-depth sort (comparison sort).
    sort_node_cost: float = 0.25e-6
    #: Per dynamic-programming cell during pairwise alignment.
    dp_cell_cost: float = 0.15e-6
    #: Fixed overhead per alignment (setup, traceback, bookkeeping).
    align_overhead: float = 0.2e-3
    #: Per promising pair produced by the generator (lset traversal share).
    pair_gen_cost: float = 6.0e-6
    #: Master-side cost per result incorporated (a union-find update is a
    #: few dozen instructions; inverse-Ackermann amortised).
    master_result_cost: float = 0.4e-6
    #: Master-side cost per offered pair (two finds + queue append), and
    #: per pair examined while choosing a wave to dispatch (two finds + a
    #: step in the scratch forest).
    master_pair_cost: float = 0.6e-6
    #: Master-side fixed cost per interaction (MPI unpack + dispatch).
    master_msg_cost: float = 5.0e-6

    # --- communication ---------------------------------------------------
    #: One-way message latency.
    comm_latency: float = 50.0e-6
    #: Seconds per byte of payload (~100 MB/s interconnect).
    comm_per_byte: float = 1.0e-8
    #: Payload bytes per promising pair in a message.
    bytes_per_pair: int = 20
    #: Payload bytes per alignment result in a message.
    bytes_per_result: int = 12
    #: Fixed header bytes per message.
    bytes_header: int = 64

    # --- heterogeneity ---------------------------------------------------
    #: Per-slave compute-speed multipliers: slave ``k``'s computation
    #: takes ``slave_factor(k)`` times the homogeneous cost.  Empty (the
    #: default) means a uniform fleet, as the paper's SP was.  Slaves past
    #: the end of the tuple run at factor 1.0, so a short tuple slows (or
    #: speeds) just the first few ranks.  Communication costs are not
    #: scaled — the interconnect is shared.
    slave_speed_factors: tuple[float, ...] = ()

    # ------------------------------------------------------------------ #

    def slave_factor(self, slave_id: int) -> float:
        """Compute-time multiplier for the given slave rank."""
        if 0 <= slave_id < len(self.slave_speed_factors):
            return self.slave_speed_factors[slave_id]
        return 1.0

    def message_time(self, n_pairs: int, n_results: int) -> float:
        """One-way transfer time of a protocol message."""
        size = (
            self.bytes_header
            + n_pairs * self.bytes_per_pair
            + n_results * self.bytes_per_result
        )
        return self.comm_latency + size * self.comm_per_byte

    def gst_build_time(self, total_suffix_chars: int) -> float:
        """Bucket-tree construction over the given scanned-character volume."""
        return total_suffix_chars * self.gst_char_cost

    def partition_time(self, n_suffixes: int) -> float:
        return n_suffixes * self.partition_suffix_cost

    def sort_time(self, n_nodes: int) -> float:
        import math

        if n_nodes <= 1:
            return n_nodes * self.sort_node_cost
        return n_nodes * math.log2(n_nodes) * self.sort_node_cost

    def alignment_time(self, dp_cells: int, n_alignments: int) -> float:
        return dp_cells * self.dp_cell_cost + n_alignments * self.align_overhead

    def generation_time(self, n_pairs: int) -> float:
        return n_pairs * self.pair_gen_cost

    def master_time(self, n_results: int, n_pairs: int) -> float:
        return (
            self.master_msg_cost
            + n_results * self.master_result_cost
            + n_pairs * self.master_pair_cost
        )

    def dispatch_time(self, n_examined: int) -> float:
        """Choosing waves over ``n_examined`` WORKBUF and in-flight pairs."""
        return n_examined * self.master_pair_cost
