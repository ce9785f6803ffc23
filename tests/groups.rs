//! Collectives inside process groups — the paper's "arbitrary and dynamic
//! subsets of processors" (§1.2). Every algorithm runs unchanged through
//! the `Comm` abstraction, including disjoint groups concurrently and the
//! classic 2D-grid row/column decomposition.

use bruck::collectives::concat::ConcatAlgorithm;
use bruck::collectives::index::IndexAlgorithm;
use bruck::collectives::verify;
use bruck::model::partition::Preference;
use bruck::net::{Cluster, ClusterConfig, Endpoint, Group};

#[test]
fn index_inside_a_strided_group() {
    // Global ranks {1, 3, 5, 7, 9} of an 11-rank cluster run a 5-way
    // index among themselves.
    let n_global = 11;
    let group = Group::strided(1, 2, 10); // 1,3,5,7,9
    assert_eq!(group.len(), 5);
    let cfg = ClusterConfig::new(n_global);
    let b = 4;
    let out = Cluster::run(&cfg, |ep| {
        let Some(grank) = group.rank_of(Endpoint::rank(ep)) else {
            return Ok(None);
        };
        let mut gc = group.bind(ep);
        let input = verify::index_input(grank, 5, b);
        let result = IndexAlgorithm::BruckRadix(2).run(&mut gc, &input, b)?;
        Ok(Some(result))
    })
    .unwrap();
    for (global, result) in out.results.iter().enumerate() {
        match group.rank_of(global) {
            Some(grank) => {
                assert_eq!(
                    result.as_ref().unwrap(),
                    &verify::index_expected(grank, 5, b)
                );
            }
            None => assert!(result.is_none()),
        }
    }
}

#[test]
fn concat_inside_a_range_group() {
    let group = Group::range(2, 7);
    let cfg = ClusterConfig::new(12).with_ports(2);
    let out = Cluster::run(&cfg, |ep| {
        let Some(grank) = group.rank_of(Endpoint::rank(ep)) else {
            return Ok(None);
        };
        let mut gc = group.bind(ep);
        let input = verify::concat_input(grank, 3);
        let result = ConcatAlgorithm::Bruck(Preference::Rounds).run(&mut gc, &input)?;
        Ok(Some(result))
    })
    .unwrap();
    let expected = verify::concat_expected(7, 3);
    for (global, result) in out.results.iter().enumerate() {
        if group.rank_of(global).is_some() {
            assert_eq!(result.as_ref().unwrap(), &expected);
        }
    }
}

#[test]
fn disjoint_groups_run_collectives_concurrently() {
    // Three disjoint groups of sizes 3/4/5 each run their own index.
    let groups = [Group::range(0, 3), Group::range(3, 4), Group::range(7, 5)];
    let cfg = ClusterConfig::new(12);
    let b = 2;
    let out = Cluster::run(&cfg, |ep| {
        let global = Endpoint::rank(ep);
        let group = groups.iter().find(|g| g.rank_of(global).is_some()).unwrap();
        let grank = group.rank_of(global).unwrap();
        let gn = group.len();
        let mut gc = group.bind(ep);
        let input = verify::index_input(grank, gn, b);
        let result = IndexAlgorithm::BruckRadix(2).run(&mut gc, &input, b)?;
        Ok((gn, grank, result))
    })
    .unwrap();
    for (gn, grank, result) in &out.results {
        assert_eq!(result, &verify::index_expected(*grank, *gn, b));
    }
}

#[test]
fn grid_row_then_column_allgather_reaches_everyone() {
    // 3×4 process grid: allgather along rows, then along columns, equals
    // a global allgather — the standard 2D decomposition of collectives.
    let rows = 3usize;
    let cols = 4usize;
    let n = rows * cols;
    let b = 2;
    let cfg = ClusterConfig::new(n).with_ports(2);
    let out = Cluster::run(&cfg, |ep| {
        let global = Endpoint::rank(ep);
        let my_row = global / cols;
        let my_col = global % cols;
        let row_group = Group::range(my_row * cols, cols);
        let col_group = Group::strided(my_col, cols, n);

        // Row phase: gather the row's blocks.
        let mine = verify::concat_input(global, b);
        let row_all = {
            let mut gc = row_group.bind(ep);
            ConcatAlgorithm::Bruck(Preference::Rounds).run(&mut gc, &mine)?
        };
        // Column phase: gather the row-concatenations down each column.
        let full = {
            let mut gc = col_group.bind(ep);
            ConcatAlgorithm::Bruck(Preference::Rounds).run(&mut gc, &row_all)?
        };
        Ok(full)
    })
    .unwrap();
    // The column phase stacks row-blocks in row order, so the result is
    // the global concatenation in rank order.
    let expected = verify::concat_expected(n, b);
    for (rank, r) in out.results.iter().enumerate() {
        assert_eq!(r, &expected, "rank {rank}");
    }
}

#[test]
fn group_of_one_is_a_no_op() {
    let group = Group::new(vec![2]);
    let cfg = ClusterConfig::new(4);
    let out = Cluster::run(&cfg, |ep| {
        if Endpoint::rank(ep) == 2 {
            let mut gc = group.bind(ep);
            let input = verify::index_input(0, 1, 8);
            return IndexAlgorithm::BruckRadix(2).run(&mut gc, &input, 8);
        }
        Ok(Vec::new())
    })
    .unwrap();
    assert_eq!(out.results[2], verify::index_input(0, 1, 8));
}

#[test]
fn vops_and_reductions_work_in_groups() {
    let group = Group::strided(0, 2, 10); // 0,2,4,6,8
    let cfg = ClusterConfig::new(10);
    let out = Cluster::run(&cfg, |ep| {
        let Some(grank) = group.rank_of(Endpoint::rank(ep)) else {
            return Ok(None);
        };
        let mut gc = group.bind(ep);
        let mine: Vec<f64> = vec![grank as f64; 3];
        let sum = bruck::collectives::reduce::allreduce(
            &mut gc,
            &mine,
            bruck::collectives::reduce::ReduceOp::Sum,
        )?;
        let mut gathered = Vec::new();
        let layout = bruck::collectives::vops::allgatherv_into(
            &mut gc,
            &vec![grank as u8; grank + 1],
            &mut gathered,
        )?;
        let blocks: Vec<Vec<u8>> = (0..layout.len())
            .map(|src| layout.slice(&gathered, src).to_vec())
            .collect();
        Ok(Some((sum, blocks)))
    })
    .unwrap();
    for (global, r) in out.results.iter().enumerate() {
        if let Some((sum, blocks)) = r {
            assert_eq!(global % 2, 0);
            assert!(sum.iter().all(|&s| (s - 10.0).abs() < 1e-9)); // 0+1+2+3+4
            for (g, blk) in blocks.iter().enumerate() {
                assert_eq!(blk, &vec![g as u8; g + 1]);
            }
        }
    }
}
