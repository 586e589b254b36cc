//! Stage-by-stage timing of the decision procedure on the many-views
//! workload (development aid for the DEDUP experiment; not a tracked bench).

use cqdet_bench::decide_workload;
use cqdet_core::decide_bag_determinacy;
use cqdet_linalg::{span_coefficients, QVec, Rat};
use cqdet_query::cq::common_schema;
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::{connected_components, dedup_up_to_iso, hom_exists, multiplicities};
use std::time::Instant;

fn main() {
    let views_n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(256);
    let (views, query) = decide_workload(views_n, 3, true, 0xD15C + views_n as u64);

    let t0 = Instant::now();
    let all: Vec<&ConjunctiveQuery> = views.iter().chain(std::iter::once(&query)).collect();
    let schema = common_schema(&all);
    let (q_body, _) = query.frozen_body_over(&schema);
    let view_bodies: Vec<_> = views
        .iter()
        .map(|v| v.frozen_body_over(&schema).0)
        .collect();
    println!("freeze          {:>10.2?}", t0.elapsed());

    let t = Instant::now();
    let retained: Vec<usize> = (0..views.len())
        .filter(|&i| hom_exists(&view_bodies[i], &q_body))
        .collect();
    println!(
        "gate            {:>10.2?} ({} retained)",
        t.elapsed(),
        retained.len()
    );

    let t = Instant::now();
    let mut comps: Vec<Vec<_>> = retained
        .iter()
        .map(|&i| connected_components(&view_bodies[i]))
        .collect();
    comps.push(connected_components(&q_body));
    let n_comps: usize = comps.iter().map(Vec::len).sum();
    println!("components      {:>10.2?} ({n_comps} comps)", t.elapsed());

    let t = Instant::now();
    let basis = dedup_up_to_iso(comps.iter().flatten().cloned().collect());
    println!(
        "dedup           {:>10.2?} (basis {})",
        t.elapsed(),
        basis.len()
    );

    let t = Instant::now();
    let vectors: Vec<_> = comps.iter().map(|c| multiplicities(&basis, c)).collect();
    println!("vectors         {:>10.2?} ({})", t.elapsed(), vectors.len());

    let to_qvec = |m: &Vec<u64>| QVec(m.iter().map(|&x| Rat::from_i64(x as i64)).collect());
    let qvecs: Vec<QVec> = vectors
        .iter()
        .map(|v| to_qvec(v.as_ref().unwrap()))
        .collect();
    let (view_vecs, q_vec) = (&qvecs[..qvecs.len() - 1], &qvecs[qvecs.len() - 1]);
    let t = Instant::now();
    let coeffs = span_coefficients(view_vecs, q_vec);
    println!(
        "span_coeffs     {:>10.2?} ({})",
        t.elapsed(),
        coeffs.is_some()
    );

    let t = Instant::now();
    let res = decide_bag_determinacy(&views, &query).unwrap();
    println!(
        "full pipeline   {:>10.2?} (determined={})",
        t.elapsed(),
        res.determined
    );
}
