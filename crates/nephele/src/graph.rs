//! Job graphs: directed acyclic graphs of tasks connected by channels,
//! mirroring the paper's description of Nephele ("data flow programs which
//! are expressed as directed acyclic graphs [...] each vertex represents a
//! task [...] tasks can exchange data through communication channels which
//! are modeled as the edges").

use crate::channel::CompressionMode;
use crate::error::{NepheleError, Result};
use crate::task::Task;

/// A vertex: a named task.
pub struct Vertex {
    pub name: String,
    pub task: Box<dyn Task>,
}

/// An edge: a channel between two vertices.
pub struct Edge {
    pub from: usize,
    pub to: usize,
    pub compression: CompressionMode,
}

/// Handle to a vertex in a [`JobGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VertexId(pub(crate) usize);

/// A dataflow job under construction.
pub struct JobGraph {
    pub name: String,
    pub(crate) vertices: Vec<Vertex>,
    pub(crate) edges: Vec<Edge>,
}

impl JobGraph {
    pub fn new(name: impl Into<String>) -> Self {
        JobGraph { name: name.into(), vertices: Vec::new(), edges: Vec::new() }
    }

    /// Adds a task vertex.
    pub fn add_vertex(&mut self, name: impl Into<String>, task: Box<dyn Task>) -> VertexId {
        self.vertices.push(Vertex { name: name.into(), task });
        VertexId(self.vertices.len() - 1)
    }

    /// Connects `from` → `to` with the given compression mode.
    /// Input/output indices follow connection order.
    pub fn connect(
        &mut self,
        from: VertexId,
        to: VertexId,
        compression: CompressionMode,
    ) -> Result<()> {
        if from.0 >= self.vertices.len() || to.0 >= self.vertices.len() {
            return Err(NepheleError::InvalidGraph("unknown vertex".into()));
        }
        if from == to {
            return Err(NepheleError::InvalidGraph("self-loop".into()));
        }
        self.edges.push(Edge { from: from.0, to: to.0, compression });
        Ok(())
    }

    /// Validates the graph: must be a non-empty DAG.
    pub fn validate(&self) -> Result<()> {
        if self.vertices.is_empty() {
            return Err(NepheleError::InvalidGraph("no vertices".into()));
        }
        // Kahn's algorithm for cycle detection.
        let n = self.vertices.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for e in self.edges.iter().filter(|e| e.from == v) {
                indeg[e.to] -= 1;
                if indeg[e.to] == 0 {
                    queue.push(e.to);
                }
            }
        }
        if seen != n {
            return Err(NepheleError::InvalidGraph("graph contains a cycle".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Task, TaskContext};

    struct Noop;
    impl Task for Noop {
        fn run(&mut self, _ctx: &mut TaskContext) -> Result<()> {
            Ok(())
        }
    }

    fn noop() -> Box<dyn Task> {
        Box::new(Noop)
    }

    #[test]
    fn builds_and_validates_a_chain() {
        let mut g = JobGraph::new("chain");
        let a = g.add_vertex("a", noop());
        let b = g.add_vertex("b", noop());
        let c = g.add_vertex("c", noop());
        g.connect(a, b, CompressionMode::Static(0)).unwrap();
        g.connect(b, c, CompressionMode::Static(1)).unwrap();
        assert_eq!((g.vertices.len(), g.edges.len()), (3, 2));
        g.validate().unwrap();
    }

    #[test]
    fn rejects_self_loop_and_unknown_vertex() {
        let mut g = JobGraph::new("bad");
        let a = g.add_vertex("a", noop());
        assert!(g.connect(a, a, CompressionMode::Static(0)).is_err());
        assert!(g.connect(a, VertexId(5), CompressionMode::Static(0)).is_err());
    }

    #[test]
    fn rejects_cycle() {
        let mut g = JobGraph::new("cycle");
        let a = g.add_vertex("a", noop());
        let b = g.add_vertex("b", noop());
        let c = g.add_vertex("c", noop());
        g.connect(a, b, CompressionMode::Static(0)).unwrap();
        g.connect(b, c, CompressionMode::Static(0)).unwrap();
        g.connect(c, a, CompressionMode::Static(0)).unwrap();
        assert!(g.validate().is_err());
    }

    #[test]
    fn rejects_empty_graph() {
        assert!(JobGraph::new("empty").validate().is_err());
    }

    #[test]
    fn diamond_is_valid() {
        let mut g = JobGraph::new("diamond");
        let a = g.add_vertex("a", noop());
        let b = g.add_vertex("b", noop());
        let c = g.add_vertex("c", noop());
        let d = g.add_vertex("d", noop());
        g.connect(a, b, CompressionMode::Static(0)).unwrap();
        g.connect(a, c, CompressionMode::Static(0)).unwrap();
        g.connect(b, d, CompressionMode::Static(0)).unwrap();
        g.connect(c, d, CompressionMode::Static(0)).unwrap();
        g.validate().unwrap();
    }
}
