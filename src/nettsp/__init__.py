"""Metric TSP approximation toolkit built on nested nets and portal DP."""

from .metric import (MetricSpace, ball, estimate_doubling, from_matrix,
                     from_points, normalize, restrict, validate_metric)
from .nets import NetHierarchy, build_hierarchy, verify_nets
from .partition import estimate_cut_probability, radius_ppf
from .lightdp import (draw_radius_samples, make_flat_tree, solve_light_tour,
                      solve_with_radius_guessing, tree_from_samples)
from .oracles import (brute_force_matching, brute_force_tsp, christofides,
                      held_karp_tsp, nearest_neighbor_tsp)
from .sparse import (SolveParams, SplitResult, check_local_tour_bounds,
                     choose_split_radius, find_dense_region, solve_tsp,
                     split_instance)
from .tours import (Tour, double_tree_tour, edges_weight, is_net_respecting,
                    make_net_respecting, mst, odd_matching_by_tree,
                    patch_crossings, stitch_subtours, tour_weight)

__version__ = "0.1.0"
