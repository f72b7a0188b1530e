//! Graph analytics: "tools for common analyses of subsets, such as
//! extraction of the Web graph and calculations of graph statistics."

use crate::graph::LinkGraph;

/// PageRank by power iteration with uniform teleport and dangling-mass
/// redistribution. Returns one score per node, summing to ~1.
#[allow(clippy::needless_range_loop)] // v indexes both the graph and rank arrays
pub fn pagerank(graph: &LinkGraph, damping: f64, iterations: usize) -> Vec<f64> {
    assert!((0.0..1.0).contains(&damping), "damping must be in [0, 1)");
    let n = graph.node_count();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.fill(0.0);
        let mut dangling = 0.0;
        for v in 0..n {
            let deg = graph.out_degree(v);
            if deg == 0 {
                dangling += rank[v];
            } else {
                let share = rank[v] / deg as f64;
                for &t in graph.out_neighbors(v) {
                    next[t as usize] += share;
                }
            }
        }
        let teleport = (1.0 - damping) * uniform + damping * dangling * uniform;
        for r in next.iter_mut() {
            *r = *r * damping + teleport;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Weakly connected components via union–find. Returns (labels, count).
#[allow(clippy::needless_range_loop)] // v indexes both the graph and label arrays
pub fn weakly_connected_components(graph: &LinkGraph) -> (Vec<usize>, usize) {
    let n = graph.node_count();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for v in 0..n {
        for &t in graph.out_neighbors(v) {
            let a = find(&mut parent, v);
            let b = find(&mut parent, t as usize);
            if a != b {
                parent[a] = b;
            }
        }
    }
    let mut labels = vec![0usize; n];
    let mut remap = std::collections::HashMap::new();
    let mut count = 0usize;
    for v in 0..n {
        let root = find(&mut parent, v);
        let label = *remap.entry(root).or_insert_with(|| {
            count += 1;
            count - 1
        });
        labels[v] = label;
    }
    (labels, count)
}

/// Histogram of in-degrees: `hist[d]` = nodes with in-degree `d` (capped at
/// `max_degree`, with overflow in the last bucket).
pub fn in_degree_histogram(graph: &LinkGraph, max_degree: usize) -> Vec<usize> {
    let mut hist = vec![0usize; max_degree + 1];
    for d in graph.in_degrees() {
        hist[d.min(max_degree)] += 1;
    }
    hist
}

/// Summary statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub nodes: usize,
    pub edges: usize,
    pub components: usize,
    pub largest_component_fraction: f64,
    pub max_in_degree: usize,
    pub mean_out_degree: f64,
}

pub fn graph_stats(graph: &LinkGraph) -> GraphStats {
    let (labels, components) = weakly_connected_components(graph);
    let mut sizes = vec![0usize; components];
    for &l in &labels {
        sizes[l] += 1;
    }
    let largest = sizes.iter().copied().max().unwrap_or(0);
    GraphStats {
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        components,
        largest_component_fraction: if graph.node_count() > 0 {
            largest as f64 / graph.node_count() as f64
        } else {
            0.0
        },
        max_in_degree: graph.in_degrees().into_iter().max().unwrap_or(0),
        mean_out_degree: if graph.node_count() > 0 {
            graph.edge_count() as f64 / graph.node_count() as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawlsim::{SyntheticWeb, WebConfig};
    use crate::graph::LinkGraph;
    use sciflow_core::rng::Rng;

    fn chain_graph() -> LinkGraph {
        // 0 → 1 → 2, and isolated 3.
        let urls: Vec<String> = (0..4).map(|i| format!("http://p{i}/")).collect();
        let pairs = vec![(0i64, "http://p1/".to_string()), (1, "http://p2/".to_string())];
        LinkGraph::build(urls, &pairs).unwrap()
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_sinks_highest() {
        let g = chain_graph();
        let pr = pagerank(&g, 0.85, 50);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        // Node 2 receives rank from the whole chain.
        assert!(pr[2] > pr[1] && pr[1] > pr[0]);
        assert!(pr[3] < pr[2]);
    }

    #[test]
    fn components_found() {
        let g = chain_graph();
        let (labels, count) = weakly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn stats_on_synthetic_web() {
        let mut rng = Rng::seed_from_u64(3);
        let web = SyntheticWeb::generate(WebConfig::default(), 1, &mut rng);
        let crawl = &web.crawls[0];
        let urls: Vec<String> = crawl.pages.iter().map(|p| p.url.clone()).collect();
        let pairs: Vec<(i64, String)> = crawl
            .pages
            .iter()
            .enumerate()
            .flat_map(|(i, p)| p.links.iter().map(move |l| (i as i64, l.clone())))
            .collect();
        let g = LinkGraph::build(urls, &pairs).unwrap();
        let stats = graph_stats(&g);
        assert_eq!(stats.nodes, crawl.pages.len());
        assert!(stats.edges > stats.nodes, "dense enough: {stats:?}");
        // Preferential attachment ⇒ one giant component and hub pages.
        assert!(stats.largest_component_fraction > 0.8, "{stats:?}");
        assert!(stats.max_in_degree as f64 > 3.0 * stats.mean_out_degree, "{stats:?}");
        // PageRank correlates with in-degree on the hubs.
        let pr = pagerank(&g, 0.85, 30);
        let indeg = g.in_degrees();
        let top_pr = (0..g.node_count()).max_by(|&a, &b| pr[a].total_cmp(&pr[b])).unwrap();
        let med_in = {
            let mut d = indeg.clone();
            d.sort_unstable();
            d[d.len() / 2]
        };
        assert!(indeg[top_pr] > med_in, "top PageRank node should be above median in-degree");
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let g = chain_graph();
        let hist = in_degree_histogram(&g, 1);
        // in-degrees: [0,1,1,0] → two zeros, two ones (cap 1).
        assert_eq!(hist, vec![2, 2]);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = LinkGraph::build(vec![], &[]).unwrap();
        assert!(pagerank(&g, 0.85, 10).is_empty());
        let (labels, count) = weakly_connected_components(&g);
        assert!(labels.is_empty());
        assert_eq!(count, 0);
        assert_eq!(graph_stats(&g).largest_component_fraction, 0.0);
    }
}
