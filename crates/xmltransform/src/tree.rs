//! Table trees — the tree representation of a table rule (Fig. 3/4).

use xmlprop_xmlpath::PathExpr;

/// A dense identifier for a variable of one rule's [`TableTree`]: the root
/// variable `xr` is [`VarId::ROOT`], and parents precede children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The root variable `xr`.
    pub const ROOT: VarId = VarId(0);

    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The table tree of a rule: each variable is a node, the root variable is
/// the root, and the edge into a variable is labelled with its mapping path.
///
/// [`TableRule::new`](crate::TableRule::new) builds it once, while it
/// validates the rule, and numbers the variables there: rounds over the
/// declaration order, each taking the variables whose parent is already
/// numbered.  Everything else — shredding, the propagation algorithms —
/// indexes by that [`VarId`]: they walk ancestor chains, compute
/// `path(y, x)` between variables, and measure the tree depth (the
/// experimental parameter of Fig. 7(b)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableTree {
    /// The name of each variable.
    pub(crate) names: Vec<String>,
    /// The parent of each variable, numbered below it (`parent[0] == 0`
    /// for the root).
    pub(crate) parent: Vec<u32>,
    /// The path labelling the edge into each variable (`ε` for the root).
    pub(crate) edges: Vec<PathExpr>,
    /// The variable of each field rule, in field-rule order.
    pub(crate) field_vars: Vec<VarId>,
}

impl TableTree {
    /// Every variable, root first, parents before children.
    pub fn vars(&self) -> impl ExactSizeIterator<Item = VarId> {
        (0..self.names.len() as u32).map(VarId)
    }

    /// The name of a variable.
    pub fn name(&self, var: VarId) -> &str {
        &self.names[var.index()]
    }

    /// The variable called `name`, if the rule has one.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }

    /// The parent of a variable (`None` for the root).
    pub fn parent(&self, var: VarId) -> Option<VarId> {
        (var != VarId::ROOT).then(|| VarId(self.parent[var.index()]))
    }

    /// The path labelling the edge into `var` (`ε` for the root).
    pub fn edge(&self, var: VarId) -> &PathExpr {
        &self.edges[var.index()]
    }

    /// The variable of each field rule, parallel to
    /// [`TableRule::field_rules`](crate::TableRule::field_rules).
    pub fn field_vars(&self) -> &[VarId] {
        &self.field_vars
    }

    /// `var` and its ancestors, from `var` up to the root.
    pub fn ancestors(&self, var: VarId) -> impl Iterator<Item = VarId> + '_ {
        std::iter::successors(Some(var), |&v| self.parent(v))
    }

    /// True if `anc` is an ancestor of `var` (or equal to it).
    pub fn is_ancestor_or_self(&self, anc: VarId, var: VarId) -> bool {
        self.ancestors(var).any(|v| v == anc)
    }

    /// `path(from, to)`: the concatenation of the edge paths on the unique
    /// tree path from ancestor `from` down to `to`.  Returns `None` if
    /// `from` is not an ancestor-or-self of `to`.
    ///
    /// Example from the paper (Fig. 3(b)): `path(xr, z1)` is
    /// `//book/chapter/@number`.
    pub fn path_between(&self, from: VarId, to: VarId) -> Option<PathExpr> {
        let mut segments: Vec<&PathExpr> = Vec::new();
        for v in self.ancestors(to) {
            if v == from {
                return Some(
                    segments
                        .iter()
                        .rev()
                        .fold(PathExpr::epsilon(), |out, seg| out.concat(seg)),
                );
            }
            segments.push(self.edge(v));
        }
        None
    }

    /// The depth of the tree: the maximum variable depth (the root has
    /// depth 0).  This is the experimental parameter "depth of the table
    /// tree" of Fig. 7(b).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.names.len()];
        for v in 1..depth.len() {
            depth[v] = depth[self.parent[v] as usize] + 1;
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::VarId;
    use crate::{parse_single_rule, sample};

    #[test]
    fn section_rule_tree_matches_fig_3b() {
        let t = sample::example_2_4_transformation();
        let rule = t.rule("section").unwrap();
        let tree = rule.table_tree();
        let var = |name| tree.var(name).unwrap();
        let parent = |name| tree.parent(var(name)).map(|p| tree.name(p));
        assert_eq!(tree.name(VarId::ROOT), "xr");
        assert_eq!(tree.parent(VarId::ROOT), None);
        assert!(tree.edge(VarId::ROOT).is_epsilon());
        assert_eq!(parent("zc"), Some("xr"));
        assert_eq!(parent("zs"), Some("zc"));
        assert_eq!(parent("z2"), Some("zs"));
        assert_eq!(tree.edge(var("zc")).to_string(), "//book/chapter");
        let from_root = |name| tree.path_between(VarId::ROOT, var(name)).unwrap();
        assert_eq!(from_root("z1").to_string(), "//book/chapter/@number");
        assert_eq!(from_root("z3").to_string(), "//book/chapter/section/name");
        let between = tree.path_between(var("zs"), var("z3"));
        assert_eq!(between.unwrap().to_string(), "name");
        assert_eq!(tree.path_between(var("z3"), var("zs")), None);
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.var("nope"), None);
    }

    #[test]
    fn ancestors_run_from_the_variable_up_to_the_root() {
        let t = sample::example_2_4_transformation();
        let tree = t.rule("book").unwrap().table_tree();
        let var = |name| tree.var(name).unwrap();
        let chain: Vec<&str> = tree.ancestors(var("x4")).map(|v| tree.name(v)).collect();
        assert_eq!(chain, ["x4", "xd", "xa", "xr"]);
        assert!(tree.is_ancestor_or_self(var("xa"), var("x4")));
        assert!(tree.is_ancestor_or_self(var("x4"), var("x4")));
        assert!(!tree.is_ancestor_or_self(var("x4"), var("xa")));
    }

    #[test]
    fn variables_are_in_topological_order() {
        let t = sample::example_3_1_universal();
        let tree = t.table_tree();
        for v in tree.vars().skip(1) {
            let p = tree.parent(v).unwrap();
            assert!(p < v, "{} must come before {}", tree.name(p), tree.name(v));
        }
        assert_eq!(tree.vars().next(), Some(VarId::ROOT));
    }

    #[test]
    fn numbering_is_rounds_over_declaration_order() {
        // Declared child before parent, with names that sort against the
        // topological order: round 1 takes `a` and `d` (their parent is
        // the root), round 2 `b`, round 3 `c`.
        let rule = parse_single_rule(
            "rule R(f, g) { c := b/x; b := a/y; a := xr//r; d := xr//s; \
             f := value(c); g := value(d); }",
        )
        .unwrap();
        let tree = rule.table_tree();
        let names: Vec<&str> = tree.vars().map(|v| tree.name(v)).collect();
        assert_eq!(names, ["xr", "a", "d", "b", "c"]);
        let parents: Vec<Option<&str>> = tree
            .vars()
            .map(|v| tree.parent(v).map(|p| tree.name(p)))
            .collect();
        assert_eq!(
            parents,
            [None, Some("xr"), Some("xr"), Some("a"), Some("b")]
        );
        let fields: Vec<&str> = tree.field_vars().iter().map(|&v| tree.name(v)).collect();
        assert_eq!(fields, ["c", "d"]);
        assert_eq!(tree.depth(), 3);
    }
}
