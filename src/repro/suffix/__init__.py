"""Generalized-suffix-tree substrate.

Two interchangeable backends expose the GST of the doubled string set S:

- the paper-faithful bucketed trie in the space-efficient DFS-array
  encoding (:mod:`repro.suffix.naive_tree`, :mod:`repro.suffix.dfs_array`);
- the production enhanced-suffix-array engine
  (:mod:`repro.suffix.suffix_array`, :mod:`repro.suffix.lcp`,
  :mod:`repro.suffix.interval_tree`), whose LCP intervals are the GST's
  internal nodes.
"""

from repro.suffix.buckets import enumerate_bucket_suffixes, sa_bucket_ranges, suffix_window_keys
from repro.suffix.dfs_array import DfsArrayTree, from_trie
from repro.suffix.gst import NaiveGst, SuffixArrayGst
from repro.suffix.interval_tree import FlatForest, build_flat_forest, build_lcp_forest
from repro.suffix.lcp import lcp_kasai
from repro.suffix.naive_tree import TrieNode, build_bucket_tree, build_gst_forest
from repro.suffix.suffix_array import SuffixArray, build_suffix_array
from repro.suffix.ukkonen import UkkonenTree, build_ukkonen

__all__ = [
    "enumerate_bucket_suffixes",
    "sa_bucket_ranges",
    "suffix_window_keys",
    "DfsArrayTree",
    "from_trie",
    "NaiveGst",
    "SuffixArrayGst",
    "FlatForest",
    "build_flat_forest",
    "build_lcp_forest",
    "lcp_kasai",
    "TrieNode",
    "build_bucket_tree",
    "build_gst_forest",
    "SuffixArray",
    "UkkonenTree",
    "build_ukkonen",
    "build_suffix_array",
]
