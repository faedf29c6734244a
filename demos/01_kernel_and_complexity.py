"""Walk through the kernel machinery on a graph small enough to read.

Builds a 6-node graph, aggregates its features, prints the Gram matrix,
checks the closed-form corner values, and evaluates the complexity
functional through the cached factorization and through an explicit
dense inverse.
"""

import numpy as np

from kces.graph import Graph, aggregate_features
from kces.kernel import arccos_kernel, gkc, gram_matrix
from kces.pseudolabel import encode_labels

np.set_printoptions(precision=4, suppress=True)

g = Graph(
    features=np.array(
        [
            [1.0, 0.2],
            [0.8, -0.1],
            [0.9, 0.4],
            [-0.3, 1.0],
            [-0.5, 0.8],
            [-0.2, 0.9],
        ]
    ),
    # a path with two chords; no two nodes share a closed neighborhood,
    # so no two aggregated rows coincide and the Gram stays invertible
    edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 5)],
)

rows = aggregate_features(g)
print("aggregated unit rows:")
print(rows)

gm = gram_matrix(rows)
print("\nGram matrix (diagonal is exactly 0.5):")
print(gm.h)
print("ridge used:", gm.ridge, " smallest eigenvalue:", f"{gm.lambda_min:.4f}")

# corner values of the kernel map itself
corners = arccos_kernel(np.array([1.0, 0.5, 0.0, -1.0]))
print("\nkernel at inner products [1, 0.5, 0, -1]:", corners)
print("expected:                                 [0.5, 1/6, 0, 0]")

labels = encode_labels(np.array([0, 0, 0, 1, 1, 1]))
value = gkc(gm, labels)
print("\ncomplexity via cached factorization:", f"{value:.10f}")

# same number through a dense inverse, the slow reference route
hinv = np.linalg.inv(gm.h)
dense = sum(
    2.0 * float(col @ hinv @ col) / g.n_nodes for col in labels.columns.T
)
print("complexity via explicit inverse:    ", f"{dense:.10f}")
print("agreement:", f"{abs(value - dense):.2e}")

# labels that cut across the two feature blocks are harder to fit,
# and the functional says so before any training happens
scrambled = encode_labels(np.array([0, 1, 0, 1, 0, 1]))
print("\nblock labels complexity:    ", f"{gkc(gm, labels):.4f}")
print("scrambled labels complexity:", f"{gkc(gm, scrambled):.4f}")
