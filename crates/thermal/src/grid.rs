//! Grid-refined steady-state thermal model.
//!
//! The block-level compact model (one node per PE) is what the scheduler
//! queries, matching the paper's use of HotSpot's block mode. For validation
//! and for the ablation benches this module also provides a finer grid model:
//! the floorplan bounding box is discretised into `nx × ny` cells, block
//! power is distributed over the cells it covers, and the resulting sparse
//! system is solved with one of two solvers (see [`GridSolver`]).
//!
//! # Solver selection
//!
//! | solver | per-query cost | role |
//! |---|---|---|
//! | [`GridSolver::BandedCholesky`] | one banded sweep (`O(cells · nx)`) after an `O(cells · nx²)` factorisation cached at construction | production path: campaigns, sweeps, ablations, transient stepping |
//! | [`GridSolver::GaussSeidel`] | `O(iterations · cells)`, thousands of sweeps | reference path; no setup; the oracle of the equivalence tests |
//!
//! The two paths agree to solver tolerance; the equivalence tests in this
//! module pin them together within `1e-6`.

use crate::error::ThermalError;
use crate::floorplan::Floorplan;
use crate::materials::ThermalConfig;
use tats_sparse::{BandedMatrix, BorderedBandedCholesky, SparseError};

/// Banded cell core, dense border columns and corner block of the grid
/// system in the form [`BorderedBandedCholesky`] consumes.
pub(crate) type BorderedSystem = (BandedMatrix, Vec<Vec<f64>>, Vec<Vec<f64>>);

/// Converts a sparse-subsystem failure into the thermal error vocabulary.
pub(crate) fn from_sparse(error: SparseError) -> ThermalError {
    match error {
        SparseError::NotPositiveDefinite { .. } => ThermalError::SingularSystem,
        other => ThermalError::InvalidParameter(other.to_string()),
    }
}

/// Per-cell steady-state temperatures produced by [`GridModel::steady_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridTemperatures {
    nx: usize,
    ny: usize,
    cell_c: Vec<f64>,
    block_avg_c: Vec<f64>,
    block_max_c: Vec<f64>,
}

impl GridTemperatures {
    /// Grid resolution `(nx, ny)`.
    pub fn resolution(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Temperature of the cell at `(ix, iy)`, °C.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for out-of-range indices.
    pub fn cell(&self, ix: usize, iy: usize) -> Result<f64, ThermalError> {
        if ix >= self.nx || iy >= self.ny {
            return Err(ThermalError::InvalidParameter(format!(
                "cell ({ix}, {iy}) outside {}x{} grid",
                self.nx, self.ny
            )));
        }
        Ok(self.cell_c[iy * self.nx + ix])
    }

    /// All cell temperatures in row-major order, °C.
    pub fn cells(&self) -> &[f64] {
        &self.cell_c
    }

    /// Mean temperature of the cells covered by each block, °C.
    pub fn block_average_c(&self) -> &[f64] {
        &self.block_avg_c
    }

    /// Maximum temperature of the cells covered by each block, °C.
    pub fn block_max_c(&self) -> &[f64] {
        &self.block_max_c
    }

    /// Hottest cell temperature on the whole die, °C.
    pub fn max_c(&self) -> f64 {
        self.cell_c
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Steady-state solution strategy of a [`GridModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridSolver {
    /// Point-wise Gauss–Seidel relaxation — the reference implementation.
    #[default]
    GaussSeidel,
    /// Direct banded Cholesky factorisation of the cell Laplacian
    /// (bandwidth `nx`) with the dense spreader/sink rows handled by block
    /// elimination; the factor is computed once at selection time and
    /// cached for every subsequent right-hand side.
    BandedCholesky,
}

impl GridSolver {
    /// Every solver, in the order name listings show them. Parsers of
    /// solver names (campaign specs, the CLI) look names up here.
    pub const ALL: [GridSolver; 2] = [GridSolver::GaussSeidel, GridSolver::BandedCholesky];

    /// Stable textual name (accepted back by the CLI's `--solver` option).
    pub fn name(&self) -> &'static str {
        match self {
            GridSolver::GaussSeidel => "gauss-seidel",
            GridSolver::BandedCholesky => "cholesky",
        }
    }

    /// The solver whose [`GridSolver::name`] is `name`, if any.
    pub fn from_name(name: &str) -> Option<GridSolver> {
        GridSolver::ALL
            .into_iter()
            .find(|solver| solver.name() == name)
    }
}

impl std::fmt::Display for GridSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reusable buffers for repeated [`GridModel::steady_state_with`] queries:
/// the node temperature vector doubles as the warm start of iterative
/// solves, so parameter sweeps converge in a handful of iterations.
#[derive(Debug, Clone)]
pub struct GridWorkspace {
    /// Node temperatures: cells, then spreader, then sink.
    t: Vec<f64>,
    /// Heat input per node.
    q: Vec<f64>,
    /// Iterations of the most recent solve (0 for the direct Cholesky
    /// path, which has no iteration count).
    last_iterations: usize,
    /// Residual the most recent solve achieved (0.0 for the direct path).
    last_residual: f64,
}

impl GridWorkspace {
    /// Gauss–Seidel sweeps the most recent [`GridModel::steady_state_with`]
    /// call took. Zero before the first solve and for the direct
    /// banded-Cholesky path.
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    /// Residual the most recent Gauss–Seidel solve achieved (max
    /// temperature change of its last sweep). Zero before the first solve
    /// and for the direct banded-Cholesky path.
    pub fn last_residual(&self) -> f64 {
        self.last_residual
    }
}

/// Grid-based steady-state thermal solver.
///
/// # Examples
///
/// ```
/// use tats_thermal::{Block, Floorplan, GridModel, GridSolver, ThermalConfig};
///
/// # fn main() -> Result<(), tats_thermal::ThermalError> {
/// let plan = Floorplan::new(vec![
///     Block::from_mm("hot", 0.0, 0.0, 7.0, 7.0),
///     Block::from_mm("cold", 7.0, 0.0, 7.0, 7.0),
/// ])?;
/// let grid = GridModel::new(&plan, ThermalConfig::default(), 16, 8)?
///     .with_solver(GridSolver::BandedCholesky)?;
/// let temps = grid.steady_state(&[8.0, 0.5])?;
/// assert!(temps.block_average_c()[0] > temps.block_average_c()[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GridModel {
    config: ThermalConfig,
    nx: usize,
    ny: usize,
    cell_area: f64,
    /// Fraction of each cell covered by each block: `coverage[block][cell]`.
    coverage: Vec<Vec<f64>>,
    /// Lateral conductance between horizontally adjacent cells, W/K.
    g_lateral_x: f64,
    /// Lateral conductance between vertically adjacent cells, W/K.
    g_lateral_y: f64,
    /// Vertical conductance of one cell towards the spreader, W/K.
    g_vertical: f64,
    solver: GridSolver,
    /// Cached banded factor: `Some` exactly when the solver is
    /// [`GridSolver::BandedCholesky`].
    factor: Option<BorderedBandedCholesky>,
    max_iterations: usize,
    tolerance: f64,
}

impl GridModel {
    /// Builds a grid model over the floorplan bounding box, defaulting to
    /// the Gauss–Seidel reference solver (see [`GridModel::with_solver`]).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a zero-sized grid and
    /// propagates configuration validation errors.
    pub fn new(
        floorplan: &Floorplan,
        config: ThermalConfig,
        nx: usize,
        ny: usize,
    ) -> Result<Self, ThermalError> {
        config.validate()?;
        if nx == 0 || ny == 0 {
            return Err(ThermalError::InvalidParameter(
                "grid resolution must be at least 1x1".to_string(),
            ));
        }
        let (width, height) = floorplan.bounding_box();
        let min_x = floorplan
            .blocks()
            .iter()
            .map(|b| b.x())
            .fold(f64::INFINITY, f64::min);
        let min_y = floorplan
            .blocks()
            .iter()
            .map(|b| b.y())
            .fold(f64::INFINITY, f64::min);
        let cell_w = width / nx as f64;
        let cell_h = height / ny as f64;
        let cell_area = cell_w * cell_h;

        // Coverage of each cell by each block.
        let mut coverage = vec![vec![0.0; nx * ny]; floorplan.block_count()];
        for (b, block) in floorplan.blocks().iter().enumerate() {
            for iy in 0..ny {
                for ix in 0..nx {
                    let cx0 = min_x + ix as f64 * cell_w;
                    let cy0 = min_y + iy as f64 * cell_h;
                    let cx1 = cx0 + cell_w;
                    let cy1 = cy0 + cell_h;
                    let ox = (block.x() + block.width()).min(cx1) - block.x().max(cx0);
                    let oy = (block.y() + block.height()).min(cy1) - block.y().max(cy0);
                    if ox > 0.0 && oy > 0.0 {
                        coverage[b][iy * nx + ix] = (ox * oy) / cell_area;
                    }
                }
            }
        }

        let g_lateral_x = config.lateral_conductance(cell_w, cell_h);
        let g_lateral_y = config.lateral_conductance(cell_h, cell_w);
        let g_vertical = config.vertical_conductance(cell_area);

        Ok(GridModel {
            config,
            nx,
            ny,
            cell_area,
            coverage,
            g_lateral_x,
            g_lateral_y,
            g_vertical,
            solver: GridSolver::GaussSeidel,
            factor: None,
            max_iterations: 20_000,
            tolerance: 1e-7,
        })
    }

    /// Selects the steady-state solver, building and caching the banded
    /// factorisation when the solver is [`GridSolver::BandedCholesky`].
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] if the assembled system is
    /// not positive definite (cannot happen for validated configurations).
    pub fn with_solver(mut self, solver: GridSolver) -> Result<Self, ThermalError> {
        self.factor = match solver {
            GridSolver::GaussSeidel => None,
            GridSolver::BandedCholesky => {
                let (core, border, corner) = self.assemble_bordered(0.0, 0.0, 0.0)?;
                Some(BorderedBandedCholesky::new(&core, &border, &corner).map_err(from_sparse)?)
            }
        };
        self.solver = solver;
        Ok(self)
    }

    /// The selected steady-state solver.
    pub fn solver(&self) -> GridSolver {
        self.solver
    }

    /// Overrides the sweep budget and tolerance (maximum per-sweep
    /// temperature change) of the Gauss–Seidel reference solver. The banded
    /// Cholesky path is direct and ignores both.
    pub fn with_solver_limits(mut self, max_iterations: usize, tolerance: f64) -> Self {
        self.max_iterations = max_iterations;
        self.tolerance = tolerance;
        self
    }

    /// Grid resolution `(nx, ny)`.
    pub fn resolution(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Area of one grid cell, m².
    pub fn cell_area(&self) -> f64 {
        self.cell_area
    }

    /// Number of unknowns of the assembled system (cells + spreader + sink).
    pub fn node_count(&self) -> usize {
        self.nx * self.ny + 2
    }

    /// Assembles the bordered-banded form of the system: the banded cell
    /// Laplacian (bandwidth `nx`), the dense spreader/sink border and the
    /// 2×2 corner. The `*_shift` arguments add to the respective diagonals,
    /// which is how the implicit transient stepper injects `C/dt`.
    pub(crate) fn assemble_bordered(
        &self,
        cell_diagonal_shift: f64,
        spreader_shift: f64,
        sink_shift: f64,
    ) -> Result<BorderedSystem, ThermalError> {
        let cells = self.nx * self.ny;
        let g_sp_sink = 1.0 / self.config.spreader_to_sink_resistance;
        let g_conv = 1.0 / self.config.convection_resistance;
        let mut core = BandedMatrix::zeros(cells, self.nx.min(cells.saturating_sub(1)).max(1));
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let idx = iy * self.nx + ix;
                core.add(idx, idx, self.g_vertical + cell_diagonal_shift)
                    .map_err(from_sparse)?;
                if ix + 1 < self.nx {
                    core.add(idx, idx, self.g_lateral_x).map_err(from_sparse)?;
                    core.add(idx + 1, idx + 1, self.g_lateral_x)
                        .map_err(from_sparse)?;
                    core.add(idx + 1, idx, -self.g_lateral_x)
                        .map_err(from_sparse)?;
                }
                if iy + 1 < self.ny {
                    core.add(idx, idx, self.g_lateral_y).map_err(from_sparse)?;
                    core.add(idx + self.nx, idx + self.nx, self.g_lateral_y)
                        .map_err(from_sparse)?;
                    core.add(idx + self.nx, idx, -self.g_lateral_y)
                        .map_err(from_sparse)?;
                }
            }
        }
        let border = vec![vec![-self.g_vertical; cells], vec![0.0; cells]];
        let corner = vec![
            vec![
                cells as f64 * self.g_vertical + g_sp_sink + spreader_shift,
                -g_sp_sink,
            ],
            vec![-g_sp_sink, g_sp_sink + g_conv + sink_shift],
        ];
        Ok((core, border, corner))
    }

    pub(crate) fn validate_power(&self, block_power: &[f64]) -> Result<(), ThermalError> {
        let block_count = self.coverage.len();
        if block_power.len() != block_count {
            return Err(ThermalError::PowerLengthMismatch {
                expected: block_count,
                actual: block_power.len(),
            });
        }
        if let Some((i, &p)) = block_power
            .iter()
            .enumerate()
            .find(|(_, p)| !p.is_finite() || **p < 0.0)
        {
            return Err(ThermalError::InvalidPower(i, p));
        }
        Ok(())
    }

    /// Distributes block power over covered cells proportionally to the
    /// covered area and fills the spreader/sink right-hand-side entries.
    pub(crate) fn heat_input_into(&self, block_power: &[f64], q: &mut [f64]) {
        let cells = self.nx * self.ny;
        q.fill(0.0);
        for (b, &p) in block_power.iter().enumerate() {
            let covered: f64 = self.coverage[b].iter().sum();
            if covered <= 0.0 {
                continue;
            }
            for (c, &frac) in self.coverage[b].iter().enumerate() {
                q[c] += p * frac / covered;
            }
        }
        q[cells] = 0.0;
        q[cells + 1] = self.config.ambient_c / self.config.convection_resistance;
    }

    /// Creates a workspace sized for this model, with every node at the
    /// ambient temperature (the iterative solvers' initial guess).
    pub fn workspace(&self) -> GridWorkspace {
        let n = self.node_count();
        GridWorkspace {
            t: vec![self.config.ambient_c; n],
            q: vec![0.0; n],
            last_iterations: 0,
            last_residual: 0.0,
        }
    }

    /// Solves the steady-state grid system for the given per-block powers.
    ///
    /// Convenience wrapper around [`GridModel::steady_state_with`] that
    /// creates a fresh workspace per call.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] /
    /// [`ThermalError::InvalidPower`] for malformed input and
    /// [`ThermalError::NoConvergence`] (carrying the achieved residual and
    /// iteration count) if an iterative solver stalls.
    pub fn steady_state(&self, block_power: &[f64]) -> Result<GridTemperatures, ThermalError> {
        self.steady_state_with(block_power, &mut self.workspace())
    }

    /// Solves the steady-state grid system reusing caller-owned buffers.
    /// After the first call no heap allocation occurs on the solve path
    /// (the returned [`GridTemperatures`] owns fresh statistics vectors);
    /// iterative solvers warm-start from the workspace's previous solution.
    ///
    /// # Errors
    ///
    /// See [`GridModel::steady_state`].
    pub fn steady_state_with(
        &self,
        block_power: &[f64],
        workspace: &mut GridWorkspace,
    ) -> Result<GridTemperatures, ThermalError> {
        self.validate_power(block_power)?;
        let n = self.node_count();
        if workspace.t.len() != n {
            workspace.t = vec![self.config.ambient_c; n];
            workspace.q = vec![0.0; n];
        }
        self.heat_input_into(block_power, &mut workspace.q);

        match &self.factor {
            None => {
                let (iterations, residual) = self.gauss_seidel(&workspace.q, &mut workspace.t)?;
                workspace.last_iterations = iterations;
                workspace.last_residual = residual;
            }
            Some(factor) => {
                workspace.t.copy_from_slice(&workspace.q);
                factor.solve_into(&mut workspace.t).map_err(from_sparse)?;
                workspace.last_iterations = 0;
                workspace.last_residual = 0.0;
            }
        }

        Ok(self.temperatures_from_cells(&workspace.t))
    }

    /// Builds the per-block statistics from a node temperature vector
    /// (cells first; trailing spreader/sink entries are ignored).
    pub(crate) fn temperatures_from_cells(&self, t: &[f64]) -> GridTemperatures {
        let cells = self.nx * self.ny;
        let block_count = self.coverage.len();
        let mut block_avg = vec![0.0; block_count];
        let mut block_max = vec![f64::NEG_INFINITY; block_count];
        for (b, cover) in self.coverage.iter().enumerate() {
            let mut weight = 0.0;
            let mut acc = 0.0;
            for (c, &frac) in cover.iter().enumerate() {
                if frac > 0.0 {
                    acc += frac * t[c];
                    weight += frac;
                    block_max[b] = block_max[b].max(t[c]);
                }
            }
            block_avg[b] = if weight > 0.0 {
                acc / weight
            } else {
                self.config.ambient_c
            };
            if !block_max[b].is_finite() {
                block_max[b] = self.config.ambient_c;
            }
        }

        GridTemperatures {
            nx: self.nx,
            ny: self.ny,
            cell_c: t[..cells].to_vec(),
            block_avg_c: block_avg,
            block_max_c: block_max,
        }
    }

    /// The Gauss–Seidel reference sweep over cells + spreader + sink.
    /// Returns the iteration count and achieved residual on convergence.
    fn gauss_seidel(&self, q: &[f64], t: &mut [f64]) -> Result<(usize, f64), ThermalError> {
        let cells = self.nx * self.ny;
        let spreader = cells;
        let sink = cells + 1;
        let g_sp_sink = 1.0 / self.config.spreader_to_sink_resistance;
        let g_conv = 1.0 / self.config.convection_resistance;

        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        while iterations < self.max_iterations {
            iterations += 1;
            let mut max_change: f64 = 0.0;

            for iy in 0..self.ny {
                for ix in 0..self.nx {
                    let idx = iy * self.nx + ix;
                    let mut num = q[idx] + self.g_vertical * t[spreader];
                    let mut den = self.g_vertical;
                    if ix > 0 {
                        num += self.g_lateral_x * t[idx - 1];
                        den += self.g_lateral_x;
                    }
                    if ix + 1 < self.nx {
                        num += self.g_lateral_x * t[idx + 1];
                        den += self.g_lateral_x;
                    }
                    if iy > 0 {
                        num += self.g_lateral_y * t[idx - self.nx];
                        den += self.g_lateral_y;
                    }
                    if iy + 1 < self.ny {
                        num += self.g_lateral_y * t[idx + self.nx];
                        den += self.g_lateral_y;
                    }
                    let new_t = num / den;
                    max_change = max_change.max((new_t - t[idx]).abs());
                    t[idx] = new_t;
                }
            }

            // Spreader node: connected to every cell and to the sink.
            let mut num = g_sp_sink * t[sink];
            let mut den = g_sp_sink;
            for temp in t.iter().take(cells) {
                num += self.g_vertical * temp;
                den += self.g_vertical;
            }
            let new_spreader = num / den;
            max_change = max_change.max((new_spreader - t[spreader]).abs());
            t[spreader] = new_spreader;

            // Sink node: spreader on one side, ambient on the other.
            let new_sink =
                (g_sp_sink * t[spreader] + g_conv * self.config.ambient_c) / (g_sp_sink + g_conv);
            max_change = max_change.max((new_sink - t[sink]).abs());
            t[sink] = new_sink;

            residual = max_change;
            if residual < self.tolerance {
                return Ok((iterations, residual));
            }
        }
        Err(ThermalError::NoConvergence {
            iterations,
            residual,
            tolerance: self.tolerance,
        })
    }

    /// Thermal configuration the model was built with.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Number of floorplan blocks the model distributes power over.
    pub fn block_count(&self) -> usize {
        self.coverage.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Block;
    use crate::model::ThermalModel;

    fn two_block_plan() -> Floorplan {
        Floorplan::new(vec![
            Block::from_mm("hot", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("cold", 7.0, 0.0, 7.0, 7.0),
        ])
        .unwrap()
    }

    #[test]
    fn hot_block_cells_are_hotter_with_every_solver() {
        for solver in GridSolver::ALL {
            let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 14, 7)
                .unwrap()
                .with_solver(solver)
                .unwrap();
            assert_eq!(grid.solver(), solver);
            let temps = grid.steady_state(&[8.0, 0.5]).unwrap();
            assert!(
                temps.block_average_c()[0] > temps.block_average_c()[1],
                "{solver}"
            );
            assert!(temps.block_max_c()[0] >= temps.block_average_c()[0]);
            assert_eq!(temps.resolution(), (14, 7));
            assert_eq!(temps.cells().len(), 14 * 7);
        }
    }

    #[test]
    fn workspace_reports_solver_telemetry() {
        for solver in GridSolver::ALL {
            let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 14, 7)
                .unwrap()
                .with_solver(solver)
                .unwrap();
            let mut workspace = grid.workspace();
            assert_eq!(workspace.last_iterations(), 0);
            assert_eq!(workspace.last_residual(), 0.0);
            grid.steady_state_with(&[8.0, 0.5], &mut workspace).unwrap();
            if solver == GridSolver::BandedCholesky {
                // Direct solve: no iteration count, exact residual.
                assert_eq!(workspace.last_iterations(), 0);
                assert_eq!(workspace.last_residual(), 0.0);
            } else {
                assert!(workspace.last_iterations() > 0, "{solver}");
                assert!(
                    workspace.last_residual().is_finite() && workspace.last_residual() >= 0.0,
                    "{solver}: {}",
                    workspace.last_residual()
                );
            }
            // A warm restart of the same solve converges at least as fast.
            let cold = workspace.last_iterations();
            grid.steady_state_with(&[8.0, 0.5], &mut workspace).unwrap();
            assert!(workspace.last_iterations() <= cold, "{solver}");
        }
    }

    #[test]
    fn grid_and_block_models_agree_qualitatively() {
        let plan = two_block_plan();
        let config = ThermalConfig::default();
        let block_model = ThermalModel::new(&plan, config).unwrap();
        let grid = GridModel::new(&plan, config, 16, 8).unwrap();
        let power = [6.0, 2.0];
        let block_temps = block_model.steady_state(&power).unwrap();
        let grid_temps = grid.steady_state(&power).unwrap();
        // Same ordering and the averages agree within a few degrees.
        assert!(grid_temps.block_average_c()[0] > grid_temps.block_average_c()[1]);
        for i in 0..2 {
            let diff = (grid_temps.block_average_c()[i] - block_temps.block(i).unwrap()).abs();
            assert!(diff < 10.0, "block {i} differs by {diff} C");
        }
    }

    #[test]
    fn zero_power_settles_at_ambient_everywhere() {
        for solver in GridSolver::ALL {
            let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 8, 4)
                .unwrap()
                .with_solver(solver)
                .unwrap();
            let temps = grid.steady_state(&[0.0, 0.0]).unwrap();
            for &c in temps.cells() {
                assert!((c - 45.0).abs() < 1e-3, "{solver}: {c}");
            }
            assert!((temps.max_c() - 45.0).abs() < 1e-3);
        }
    }

    #[test]
    fn hotspot_is_inside_the_powered_block() {
        let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 14, 7).unwrap();
        let temps = grid.steady_state(&[10.0, 0.0]).unwrap();
        // The hottest cell must lie in the left half of the grid.
        let (nx, ny) = temps.resolution();
        let mut best = (0usize, 0usize);
        let mut best_t = f64::MIN;
        for iy in 0..ny {
            for ix in 0..nx {
                let t = temps.cell(ix, iy).unwrap();
                if t > best_t {
                    best_t = t;
                    best = (ix, iy);
                }
            }
        }
        assert!(
            best.0 < nx / 2,
            "hottest cell {best:?} not in the hot block"
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 8, 4).unwrap();
        assert!(grid.steady_state(&[1.0]).is_err());
        assert!(grid.steady_state(&[1.0, -1.0]).is_err());
        assert!(GridModel::new(&two_block_plan(), ThermalConfig::default(), 0, 4).is_err());
        let temps = grid.steady_state(&[1.0, 1.0]).unwrap();
        assert!(temps.cell(99, 0).is_err());
    }

    #[test]
    fn starved_solvers_report_achieved_residual() {
        let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 16, 8)
            .unwrap()
            .with_solver_limits(2, 1e-12);
        match grid.steady_state(&[5.0, 5.0]) {
            Err(ThermalError::NoConvergence {
                iterations,
                residual,
                tolerance,
            }) => {
                assert_eq!(iterations, 2);
                assert!(residual > tolerance);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 12, 6)
            .unwrap()
            .with_solver(GridSolver::BandedCholesky)
            .unwrap();
        let mut workspace = grid.workspace();
        for power in [[3.0, 1.0], [0.5, 9.0], [2.0, 2.0]] {
            let reused = grid.steady_state_with(&power, &mut workspace).unwrap();
            let fresh = grid.steady_state(&power).unwrap();
            for (a, b) in reused.cells().iter().zip(fresh.cells()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn system_matrix_shape_matches_node_count() {
        let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 6, 3).unwrap();
        let (core, border, corner) = grid.assemble_bordered(0.0, 0.0, 0.0).unwrap();
        // Banded cell core (bandwidth nx) plus a spreader and a sink node.
        assert_eq!(core.n(), 6 * 3);
        assert_eq!(core.bandwidth(), 6);
        assert_eq!(border.len(), 2);
        assert!(border.iter().all(|column| column.len() == core.n()));
        assert_eq!(corner.len(), 2);
        assert!(corner.iter().all(|row| row.len() == 2));
        assert_eq!(core.n() + corner.len(), grid.node_count());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::floorplan::Block;
    use proptest::prelude::*;

    /// A randomized strip floorplan: blocks of random sizes side by side
    /// (never overlapping by construction).
    fn strip_plan(widths_mm: &[f64], height_mm: f64) -> Floorplan {
        let mut x = 0.0;
        let mut blocks = Vec::with_capacity(widths_mm.len());
        for (i, &w) in widths_mm.iter().enumerate() {
            blocks.push(Block::from_mm(format!("b{i}"), x, 0.0, w, height_mm));
            x += w;
        }
        Floorplan::new(blocks).unwrap()
    }

    proptest! {
        /// Banded Cholesky matches the tight-tolerance Gauss–Seidel
        /// reference within 1e-6 on randomized floorplans and power
        /// assignments.
        #[test]
        fn sparse_solvers_match_gauss_seidel(
            widths in proptest::collection::vec(2.0f64..8.0, 2..5),
            height in 4.0f64..10.0,
            powers in proptest::collection::vec(0.0f64..10.0, 4),
            nx in 6usize..12,
            ny in 3usize..7,
        ) {
            let plan = strip_plan(&widths, height);
            let power = &powers[..widths.len()];
            let config = ThermalConfig::default();
            let reference = GridModel::new(&plan, config, nx, ny)
                .unwrap()
                .with_solver_limits(500_000, 1e-11)
                .steady_state(power)
                .unwrap();
            let temps = GridModel::new(&plan, config, nx, ny)
                .unwrap()
                .with_solver(GridSolver::BandedCholesky)
                .unwrap()
                .steady_state(power)
                .unwrap();
            for (cell, (a, b)) in temps.cells().iter().zip(reference.cells()).enumerate() {
                prop_assert!((a - b).abs() < 1e-6, "cell {cell}: {a} vs {b}");
            }
            for (a, b) in temps
                .block_average_c()
                .iter()
                .zip(reference.block_average_c())
            {
                prop_assert!((a - b).abs() < 1e-6, "block avg {a} vs {b}");
            }
        }

        /// Every assembled grid system — the bordered-banded form the
        /// Cholesky factor consumes — is symmetric and diagonally dominant
        /// with a positive diagonal.
        #[test]
        fn assembled_grid_matrices_are_symmetric_diagonally_dominant(
            widths in proptest::collection::vec(2.0f64..8.0, 2..5),
            height in 4.0f64..10.0,
            nx in 1usize..14,
            ny in 1usize..9,
        ) {
            let plan = strip_plan(&widths, height);
            let grid = GridModel::new(&plan, ThermalConfig::default(), nx, ny).unwrap();
            let (core, border, corner) = grid.assemble_bordered(0.0, 0.0, 0.0).unwrap();
            let cells = core.n();
            prop_assert_eq!(cells + corner.len(), nx * ny + 2);
            // Dense view of the whole system: banded core, border columns
            // (and their transposed rows), corner block.
            let n = cells + corner.len();
            let entry = |i: usize, j: usize| match (i < cells, j < cells) {
                (true, true) => core.get(i, j),
                (true, false) => border[j - cells][i],
                (false, true) => border[i - cells][j],
                (false, false) => corner[i - cells][j - cells],
            };
            prop_assert_eq!(corner[0][1], corner[1][0]);
            for i in 0..n {
                let diagonal = entry(i, i);
                prop_assert!(diagonal > 0.0, "diagonal {i} is {diagonal}");
                let off_diagonal: f64 = (0..n).filter(|&j| j != i).map(|j| entry(i, j).abs()).sum();
                prop_assert!(diagonal + 1e-9 * n as f64 >= off_diagonal, "row {i}");
            }
        }
    }
}
