//! Synthetic dataset generators.
//!
//! The paper evaluates on Reddit, two billion-edge graphs (LDBC FB91 and
//! Twitter) and the heterogeneous IMDB graph. None of those are available
//! offline and the billion-edge graphs would not fit this machine, so each
//! is replaced by a generator that preserves the property the evaluation
//! leans on (DESIGN.md §2):
//!
//! * [`community`] — Reddit-like: dense, high average degree, community
//!   structure. Density is what makes mini-batch k-hop expansion explode.
//! * [`rmat`] — FB91/Twitter-like: recursive-matrix power-law graphs with
//!   heavily skewed degrees, which drives the balancing results.
//! * [`hetero_imdb`] — IMDB-like: three vertex types wired so that
//!   metapath instances exist in configurable density.
//!
//! Every generator returns a [`Dataset`]: graph, node features, labels.
//! Features are noisy class centroids so that the models have signal to
//! learn — training-convergence tests rely on this.

use crate::csr::{Graph, GraphBuilder, VertexId};
use crate::hetero::TypedGraph;
use flexgraph_tensor::init::normal;
use flexgraph_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated graph dataset with learning signal.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable name used in harness tables.
    pub name: String,
    /// The graph structure.
    pub graph: Graph,
    /// Vertex types, for heterogeneous datasets.
    pub types: Option<Vec<u8>>,
    /// `(#vertices, feature_dim)` input features.
    pub features: Tensor,
    /// Per-vertex class labels.
    pub labels: Vec<usize>,
    /// Number of distinct classes.
    pub num_classes: usize,
}

impl Dataset {
    /// The typed view, if this dataset carries vertex types.
    ///
    /// # Panics
    ///
    /// Panics when the dataset is homogeneous.
    pub fn typed(&self) -> TypedGraph {
        TypedGraph::new(
            self.graph.clone(),
            self.types.clone().expect("dataset has no vertex types"),
        )
    }

    /// Feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Splits the vertices into train / validation index sets
    /// (transductive setting: the graph and features stay whole, only
    /// the supervised loss is masked).
    pub fn split_masks(&self, train_fraction: f64, seed: u64) -> (Vec<u32>, Vec<u32>) {
        use rand::seq::SliceRandom;
        let n = self.graph.num_vertices();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let cut = ((n as f64) * train_fraction).round() as usize;
        let val = idx.split_off(cut.min(n));
        (idx, val)
    }
}

/// Builds noisy class-centroid features: each class gets a random centroid
/// and every vertex samples `centroid + N(0, noise)`.
fn class_features(
    rng: &mut StdRng,
    labels: &[usize],
    num_classes: usize,
    dim: usize,
    noise: f32,
) -> Tensor {
    let centroids = normal(rng, num_classes, dim, 1.0);
    let mut feats = normal(rng, labels.len(), dim, noise);
    for (v, &l) in labels.iter().enumerate() {
        let c: Vec<f32> = centroids.row(l).to_vec();
        let row = feats.row_mut(v);
        for (x, c) in row.iter_mut().zip(c) {
            *x += c;
        }
    }
    feats
}

/// Reddit-like dense community graph.
///
/// `n` vertices are split into `num_classes` communities; each vertex draws
/// `intra_deg` undirected edges inside its community and `inter_deg`
/// across communities. Average degree is `2·(intra_deg + inter_deg)`,
/// matching Reddit's ~100 average-degree density regime when called with
/// the defaults of [`reddit_like`].
pub fn community(
    n: usize,
    num_classes: usize,
    intra_deg: usize,
    inter_deg: usize,
    feature_dim: usize,
    seed: u64,
) -> Dataset {
    assert!(
        num_classes >= 1 && n >= num_classes,
        "need at least one vertex per class"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: Vec<usize> = (0..n).map(|v| v % num_classes).collect();
    // Members of each community, for intra sampling.
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); num_classes];
    for (v, &l) in labels.iter().enumerate() {
        members[l].push(v as VertexId);
    }
    let mut b = GraphBuilder::new(n).dedup();
    for v in 0..n {
        let l = labels[v];
        for _ in 0..intra_deg {
            let u = members[l][rng.gen_range(0..members[l].len())];
            if u as usize != v {
                b.add_undirected(v as VertexId, u);
            }
        }
        for _ in 0..inter_deg {
            let u = rng.gen_range(0..n) as VertexId;
            if u as usize != v {
                b.add_undirected(v as VertexId, u);
            }
        }
    }
    let graph = b.build();
    let features = class_features(&mut rng, &labels, num_classes, feature_dim, 0.8);
    Dataset {
        name: "reddit-like".into(),
        graph,
        types: None,
        features,
        labels,
        num_classes,
    }
}

/// R-MAT power-law generator (Chakrabarti et al. parameters a/b/c/d).
///
/// `scale` gives `2^scale` vertices; `edge_factor` directed edges are
/// drawn per vertex with the classic skew (a=0.57, b=0.19, c=0.19) that
/// yields Twitter-grade degree skew. Labels follow the high-order id bits
/// so that they correlate with the recursive structure.
pub fn rmat(
    scale: u32,
    edge_factor: usize,
    num_classes: usize,
    feature_dim: usize,
    seed: u64,
    name: &str,
) -> Dataset {
    let n = 1usize << scale;
    let m = n * edge_factor;
    let (a, b, c) = (0.57, 0.19, 0.19);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n).dedup();
    for _ in 0..m {
        let (mut src, mut dst) = (0usize, 0usize);
        for _ in 0..scale {
            let r: f64 = rng.gen();
            let (sbit, dbit) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            src = (src << 1) | sbit;
            dst = (dst << 1) | dbit;
        }
        if src != dst {
            // Undirected to keep walks and aggregation two-way, like the
            // paper's social graphs.
            builder.add_undirected(src as VertexId, dst as VertexId);
        }
    }
    let graph = builder.build();
    let labels: Vec<usize> = (0..n)
        .map(|v| (v >> (scale.saturating_sub(4))) % num_classes)
        .collect();
    let features = class_features(&mut rng, &labels, num_classes, feature_dim, 1.0);
    Dataset {
        name: name.into(),
        graph,
        types: None,
        features,
        labels,
        num_classes,
    }
}

/// IMDB-like heterogeneous graph with three vertex types
/// (0 = movie, 1 = director, 2 = actor).
///
/// Movies link to directors and actors (bipartite-ish), the structure
/// MAGNN's movie-director-movie / movie-actor-movie metapaths traverse.
/// `movies` movies, `movies/4` directors, `movies/2` actors by default
/// proportions; each movie gets 1 director edge and `actors_per_movie`
/// actor edges.
pub fn hetero_imdb(
    movies: usize,
    actors_per_movie: usize,
    num_classes: usize,
    feature_dim: usize,
    seed: u64,
) -> Dataset {
    let directors = (movies / 4).max(1);
    let actors = (movies / 2).max(1);
    let n = movies + directors + actors;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut types = vec![0u8; n];
    for t in types.iter_mut().take(movies + directors).skip(movies) {
        *t = 1;
    }
    for t in types.iter_mut().take(n).skip(movies + directors) {
        *t = 2;
    }
    let mut b = GraphBuilder::new(n).dedup();
    let labels: Vec<usize> = (0..n).map(|v| v % num_classes).collect();
    for mv in 0..movies {
        // Genre-assortative wiring: movies of a class prefer directors of
        // the same class index band, giving the labels graph signal.
        let d = movies
            + (labels[mv] * directors / num_classes
                + rng.gen_range(0..directors.div_ceil(num_classes).max(1)))
                % directors;
        b.add_undirected(mv as VertexId, d as VertexId);
        for _ in 0..actors_per_movie {
            let a = movies + directors + rng.gen_range(0..actors);
            b.add_undirected(mv as VertexId, a as VertexId);
        }
    }
    let graph = b.build();
    let features = class_features(&mut rng, &labels, num_classes, feature_dim, 0.8);
    Dataset {
        name: "imdb-like".into(),
        graph,
        types: Some(types),
        features,
        labels,
        num_classes,
    }
}

/// Scale knob for the preset datasets: `1.0` is the default laptop-scale
/// benchmark size; harnesses may shrink for smoke tests.
#[derive(Clone, Copy, Debug)]
pub struct ScaleFactor(pub f64);

impl Default for ScaleFactor {
    fn default() -> Self {
        Self(1.0)
    }
}

/// The Reddit stand-in (dense, community-structured). Paper: 233K
/// vertices, 11.6M edges; here ~8K vertices, ~450K edges at scale 1.0 —
/// same density regime (avg degree ≈ 55).
pub fn reddit_like(s: ScaleFactor) -> Dataset {
    let n = ((8_192.0 * s.0) as usize).max(64);
    community(n, 16, 22, 6, 64, 0x5eed_0001)
}

/// The LDBC FB91 stand-in (power-law). Paper: 16M vertices, 1.3B edges
/// (average degree ≈ 160); here 2^13 vertices × 28 edge-factor at scale
/// 1.0, keeping a comparably high-degree regime.
pub fn fb_like(s: ScaleFactor) -> Dataset {
    let scale = scaled_log2(13, s);
    rmat(scale, 28, 10, 50, 0x5eed_0002, "fb-like")
}

/// The Twitter stand-in (power-law, larger and more skewed). Paper: 42M
/// vertices, 1.5B edges (average degree ≈ 70); here 2^14 vertices × 20
/// edge-factor at scale 1.0.
pub fn twitter_like(s: ScaleFactor) -> Dataset {
    let scale = scaled_log2(14, s);
    rmat(scale, 20, 5, 50, 0x5eed_0003, "twitter-like")
}

/// The IMDB stand-in (3-typed heterogeneous). Paper: 11,616 vertices,
/// 34,212 edges; here ~3.5K vertices at scale 1.0.
pub fn imdb_like(s: ScaleFactor) -> Dataset {
    let movies = ((2_000.0 * s.0) as usize).max(32);
    hetero_imdb(movies, 3, 4, 64, 0x5eed_0004)
}

fn scaled_log2(base: u32, s: ScaleFactor) -> u32 {
    let delta = s.0.log2().round() as i32;
    (base as i32 + delta).clamp(6, 22) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn community_is_dense_and_labeled() {
        let d = community(500, 5, 10, 2, 16, 1);
        assert_eq!(d.graph.num_vertices(), 500);
        assert_eq!(d.labels.len(), 500);
        assert!(d.labels.iter().all(|&l| l < 5));
        let avg_deg = d.graph.num_edges() as f64 / 500.0;
        assert!(avg_deg > 15.0, "dense generator, got avg degree {avg_deg}");
        assert_eq!(d.features.shape(), (500, 16));
    }

    #[test]
    fn community_features_carry_class_signal() {
        // Same-class vertices must be closer in feature space on average
        // than cross-class pairs; a nearest-centroid readout should beat
        // chance comfortably.
        let d = community(300, 3, 8, 2, 16, 2);
        let mut centroids = vec![vec![0.0f32; 16]; 3];
        let mut counts = [0usize; 3];
        for (v, &l) in d.labels.iter().enumerate() {
            counts[l] += 1;
            for (c, &x) in centroids[l].iter_mut().zip(d.features.row(v)) {
                *c += x;
            }
        }
        for (c, n) in centroids.iter_mut().zip(counts) {
            for x in c {
                *x /= n as f32;
            }
        }
        let mut correct = 0usize;
        for (v, &l) in d.labels.iter().enumerate() {
            let best = (0..3)
                .min_by(|&a, &b| {
                    let da: f32 = centroids[a]
                        .iter()
                        .zip(d.features.row(v))
                        .map(|(c, x)| (c - x) * (c - x))
                        .sum();
                    let db: f32 = centroids[b]
                        .iter()
                        .zip(d.features.row(v))
                        .map(|(c, x)| (c - x) * (c - x))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == l {
                correct += 1;
            }
        }
        let acc = correct as f64 / 300.0;
        assert!(acc > 0.6, "features must be separable, accuracy {acc}");
    }

    #[test]
    fn rmat_produces_skewed_degrees() {
        let d = rmat(10, 8, 4, 8, 3, "test-rmat");
        assert_eq!(d.graph.num_vertices(), 1024);
        let avg = d.graph.num_edges() as f64 / 1024.0;
        let max = d.graph.max_out_degree() as f64;
        assert!(
            max > 8.0 * avg,
            "power-law skew expected: max {max} vs avg {avg}"
        );
    }

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(8, 4, 2, 4, 9, "a");
        let b = rmat(8, 4, 2, 4, 9, "b");
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn hetero_imdb_has_three_types_and_metapath_structure() {
        let d = hetero_imdb(200, 2, 4, 8, 5);
        let typed = d.typed();
        assert_eq!(typed.num_types(), 3);
        let hist = typed.type_histogram();
        assert_eq!(hist[0], 200, "movies");
        assert!(hist[1] > 0 && hist[2] > 0);
        // Movies only connect to directors/actors — bipartite-ish.
        for mv in 0..200u32 {
            for &nb in d.graph.out_neighbors(mv) {
                assert_ne!(typed.vertex_type(nb), 0, "no movie-movie edges");
            }
        }
    }

    #[test]
    fn presets_build_at_tiny_scale() {
        let s = ScaleFactor(1.0 / 64.0);
        for d in [reddit_like(s), fb_like(s), twitter_like(s), imdb_like(s)] {
            assert!(d.graph.num_vertices() > 0);
            assert!(d.graph.num_edges() > 0);
            assert_eq!(d.features.rows(), d.graph.num_vertices());
            assert_eq!(d.labels.len(), d.graph.num_vertices());
        }
    }
}
