//! Table trees — the tree representation of a table rule (Fig. 3/4).

use crate::rule::{TableRule, ROOT_VAR};
use std::collections::BTreeMap;
use xmlprop_xmlpath::PathExpr;

/// The table tree of a rule: each variable is a node, the root variable is
/// the root, and the edge into a variable is labelled with its mapping path.
///
/// All the propagation algorithms work on this view: they walk ancestor
/// chains, compute `path(y, x)` between variables, and measure the tree
/// depth (the experimental parameter of Fig. 7(b)).
#[derive(Debug, Clone)]
pub struct TableTree {
    /// Parent of each non-root variable.
    parent: BTreeMap<String, String>,
    /// Edge label (path) of each non-root variable.
    edge: BTreeMap<String, PathExpr>,
    /// Children of each variable, in declaration order.
    children: BTreeMap<String, Vec<String>>,
    /// All variables, root first, in a topological (parent-before-child)
    /// order.
    order: Vec<String>,
}

impl TableTree {
    /// Builds the table tree of a (validated) rule.
    pub fn from_rule(rule: &TableRule) -> Self {
        let mut parent = BTreeMap::new();
        let mut edge = BTreeMap::new();
        let mut children: BTreeMap<String, Vec<String>> = BTreeMap::new();
        children.entry(ROOT_VAR.to_string()).or_default();
        for m in rule.mappings() {
            parent.insert(m.var.clone(), m.parent.clone());
            edge.insert(m.var.clone(), m.path.clone());
            children
                .entry(m.parent.clone())
                .or_default()
                .push(m.var.clone());
            children.entry(m.var.clone()).or_default();
        }
        // Topological order: repeatedly emit variables whose parent has been
        // emitted.  Validation guarantees connectivity, so this terminates.
        let mut order = vec![ROOT_VAR.to_string()];
        let mut emitted: std::collections::BTreeSet<&str> = std::iter::once(ROOT_VAR).collect();
        let mut remaining: Vec<&str> = rule.mappings().iter().map(|m| m.var.as_str()).collect();
        while !remaining.is_empty() {
            let mut next_round = Vec::with_capacity(remaining.len());
            for var in remaining {
                if emitted.contains(parent[var].as_str()) {
                    emitted.insert(var);
                    order.push(var.to_string());
                } else {
                    next_round.push(var);
                }
            }
            remaining = next_round;
        }
        TableTree {
            parent,
            edge,
            children,
            order,
        }
    }

    /// The root variable name (`xr`).
    pub fn root(&self) -> &str {
        ROOT_VAR
    }

    /// All variables, root first, parents before children.
    pub fn variables(&self) -> &[String] {
        &self.order
    }

    /// The number of variables including the root.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the tree consists only of the root variable.
    pub fn is_empty(&self) -> bool {
        self.order.len() <= 1
    }

    /// The parent of a variable (`None` for the root).
    pub fn parent(&self, var: &str) -> Option<&str> {
        self.parent.get(var).map(String::as_str)
    }

    /// The path labelling the edge into `var` (`None` for the root).
    pub fn edge_path(&self, var: &str) -> Option<&PathExpr> {
        self.edge.get(var)
    }

    /// The children of a variable.
    pub fn children(&self, var: &str) -> &[String] {
        self.children.get(var).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if the tree knows this variable.
    pub fn contains(&self, var: &str) -> bool {
        var == ROOT_VAR || self.parent.contains_key(var)
    }

    /// The ancestors of `var` from the root down to `var` itself
    /// (inclusive) — the list Algorithm `propagation` walks top-down.
    pub fn ancestors_from_root(&self, var: &str) -> Vec<String> {
        let mut chain = vec![var.to_string()];
        let mut cur = var;
        while let Some(p) = self.parent(cur) {
            chain.push(p.to_string());
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// True if `anc` is an ancestor of `var` (or equal to it).
    pub fn is_ancestor_or_self(&self, anc: &str, var: &str) -> bool {
        let mut cur = var;
        loop {
            if cur == anc {
                return true;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// All descendants of `var`, not including `var` itself.
    pub fn descendants(&self, var: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut stack: Vec<&str> = self.children(var).iter().map(String::as_str).collect();
        while let Some(v) = stack.pop() {
            out.push(v.to_string());
            stack.extend(self.children(v).iter().map(String::as_str));
        }
        out
    }

    /// `path(from, to)`: the concatenation of the edge paths on the unique
    /// tree path from ancestor `from` down to `to`.  Returns `None` if
    /// `from` is not an ancestor-or-self of `to`.
    ///
    /// Example from the paper (Fig. 3(b)): `path(xr, z1)` is
    /// `//book/chapter/@number`.
    pub fn path_between(&self, from: &str, to: &str) -> Option<PathExpr> {
        let mut segments: Vec<&PathExpr> = Vec::new();
        let mut cur = to;
        loop {
            if cur == from {
                let mut out = PathExpr::epsilon();
                for seg in segments.iter().rev() {
                    out = out.concat(seg);
                }
                return Some(out);
            }
            let p = self.parent(cur)?;
            segments.push(self.edge_path(cur).expect("non-root variable has an edge"));
            cur = p;
        }
    }

    /// `path(xr, var)`: the position of `var` relative to the document root.
    pub fn path_from_root(&self, var: &str) -> PathExpr {
        self.path_between(ROOT_VAR, var)
            .expect("every variable is connected to the root")
    }

    /// The depth of a variable (the root has depth 0).
    pub fn depth_of(&self, var: &str) -> usize {
        self.ancestors_from_root(var).len() - 1
    }

    /// The depth of the tree: the maximum variable depth.  This is the
    /// experimental parameter "depth of the table tree" of Fig. 7(b).
    pub fn depth(&self) -> usize {
        self.order
            .iter()
            .map(|v| self.depth_of(v))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use crate::sample;

    #[test]
    fn section_rule_tree_matches_fig_3b() {
        let t = sample::example_2_4_transformation();
        let rule = t.rule("section").unwrap();
        let tree = rule.table_tree();
        assert_eq!(tree.root(), "xr");
        assert_eq!(tree.parent("zc"), Some("xr"));
        assert_eq!(tree.parent("zs"), Some("zc"));
        assert_eq!(tree.parent("z2"), Some("zs"));
        assert_eq!(tree.edge_path("zc").unwrap().to_string(), "//book/chapter");
        assert_eq!(
            tree.path_from_root("z1").to_string(),
            "//book/chapter/@number"
        );
        assert_eq!(
            tree.path_from_root("z3").to_string(),
            "//book/chapter/section/name"
        );
        assert_eq!(tree.path_between("zs", "z3").unwrap().to_string(), "name");
        assert_eq!(tree.path_between("z3", "zs"), None);
        assert_eq!(tree.depth_of("z3"), 3);
        assert_eq!(tree.depth(), 3);
    }

    #[test]
    fn ancestors_and_descendants() {
        let t = sample::example_2_4_transformation();
        let tree = t.rule("book").unwrap().table_tree();
        assert_eq!(tree.ancestors_from_root("x4"), vec!["xr", "xa", "xd", "x4"]);
        assert!(tree.is_ancestor_or_self("xa", "x4"));
        assert!(tree.is_ancestor_or_self("x4", "x4"));
        assert!(!tree.is_ancestor_or_self("x4", "xa"));
        let mut desc = tree.descendants("xd");
        desc.sort();
        assert_eq!(desc, vec!["x3", "x4"]);
        assert!(tree.children("x4").is_empty());
        assert!(!tree.children("xa").is_empty());
        assert!(tree.contains("xa"));
        assert!(!tree.contains("nope"));
    }

    #[test]
    fn variables_are_in_topological_order() {
        let t = sample::example_3_1_universal();
        let tree = t.table_tree();
        let pos: std::collections::HashMap<&str, usize> = tree
            .variables()
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i))
            .collect();
        for v in tree.variables() {
            if let Some(p) = tree.parent(v) {
                assert!(pos[p] < pos[v.as_str()], "{p} must come before {v}");
            }
        }
        assert_eq!(tree.len(), tree.variables().len());
        assert!(!tree.is_empty());
    }
}
