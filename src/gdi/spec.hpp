// GDI specification bindings: the paper's routine names, callable almost
// verbatim (paper Listings 1-3 and the Figure 2 routine groups).
//
// GDI is specified as a C-style API ("GDI_StartTransaction(&trans_obj)",
// "GDI_AssociateVertex(vID, trans_obj, &vH)"...). This header provides that
// surface as thin inline wrappers over the C++ core so that code written
// against the specification -- including the paper's own listings -- ports
// with only mechanical changes. Every wrapper returns a gdi::Status ("GDI
// error class") and writes results through out-parameters, exactly like the
// specification's signatures.
//
// Out-parameter convention: results are written only on Status::kOk.
#pragma once

#include "gdi/gdi.hpp"

namespace gdi::spec {

// Spec-style type aliases (opaque objects of the specification).
using GDI_Database = std::shared_ptr<Database>;
using GDI_Transaction = std::unique_ptr<Transaction>;
using GDI_VertexHolder = VertexHandle;  ///< "vH" in the listings
using GDI_EdgeHolder = EdgeHandle;      ///< heavy-edge access object
using GDI_VertexUid = DPtr;             ///< "vID": internal vertex ID
using GDI_EdgeUid = EdgeUid;            ///< "eID": lightweight edge UID
using GDI_Label = std::uint32_t;
using GDI_PropertyType = std::uint32_t;
using GDI_Index = std::shared_ptr<Index>;
using GDI_Constraint = Constraint;

// Edge direction constants (paper: GDI_EDGE_*).
inline constexpr DirFilter GDI_EDGE_OUTGOING = DirFilter::kOutgoing;
inline constexpr DirFilter GDI_EDGE_INCOMING = DirFilter::kIncoming;
inline constexpr DirFilter GDI_EDGE_UNDIRECTED = DirFilter::kUndirected;
inline constexpr DirFilter GDI_EDGE_ALL = DirFilter::kAll;

// --- general management ([C]) -----------------------------------------------

inline Status GDI_CreateDatabase(rma::Rank& rank, const DatabaseConfig& cfg,
                                 GDI_Database* db_out) {
  *db_out = Database::create(rank, cfg);
  return Status::kOk;
}

// --- graph metadata ----------------------------------------------------------

inline Status GDI_CreateLabel(GDI_Label* label_out, const char* name,
                              rma::Rank& rank, const GDI_Database& db) {
  auto r = db->create_label(rank, name);
  if (!r.ok()) return r.status();
  *label_out = *r;
  return Status::kOk;
}

inline Status GDI_GetLabelFromName(GDI_Label* label_out, const char* name,
                                   rma::Rank& rank, const GDI_Database& db) {
  auto r = db->label_from_name(rank, name);
  if (!r.ok()) return r.status();
  *label_out = *r;
  return Status::kOk;
}

inline Status GDI_GetNameOfLabel(std::string* name_out, GDI_Label label,
                                 rma::Rank& rank, const GDI_Database& db) {
  auto r = db->label_name(rank, label);
  if (!r.ok()) return r.status();
  *name_out = *r;
  return Status::kOk;
}

inline Status GDI_GetAllLabelsOfDatabase(std::vector<Label>* out, rma::Rank& rank,
                                         const GDI_Database& db) {
  *out = db->all_labels(rank);
  return Status::kOk;
}

inline Status GDI_CreatePropertyType(GDI_PropertyType* pt_out,
                                     const PropertyType& def, rma::Rank& rank,
                                     const GDI_Database& db) {
  auto r = db->create_ptype(rank, def);
  if (!r.ok()) return r.status();
  *pt_out = *r;
  return Status::kOk;
}

inline Status GDI_GetPropertyTypeFromName(GDI_PropertyType* pt_out, const char* name,
                                          rma::Rank& rank, const GDI_Database& db) {
  auto r = db->ptype_from_name(rank, name);
  if (!r.ok()) return r.status();
  *pt_out = *r;
  return Status::kOk;
}

// --- transactions --------------------------------------------------------------

inline Status GDI_StartTransaction(GDI_Transaction* txn_out, const GDI_Database& db,
                                   rma::Rank& rank, TxnMode mode = TxnMode::kWrite) {
  *txn_out = std::make_unique<Transaction>(db, rank, mode, TxnScope::kLocal);
  return Status::kOk;
}

inline Status GDI_StartCollectiveTransaction(GDI_Transaction* txn_out,
                                             const GDI_Database& db, rma::Rank& rank,
                                             TxnMode mode = TxnMode::kReadShared) {
  *txn_out = std::make_unique<Transaction>(db, rank, mode, TxnScope::kCollective);
  return Status::kOk;
}

/// GDI_CloseTransaction commits; GDI_AbortTransaction (below) discards.
inline Status GDI_CloseTransaction(GDI_Transaction* txn) {
  const Status s = (*txn)->commit();
  txn->reset();
  return s;
}

inline Status GDI_CloseCollectiveTransaction(GDI_Transaction* txn) {
  return GDI_CloseTransaction(txn);
}

inline Status GDI_AbortTransaction(GDI_Transaction* txn) {
  (*txn)->abort();
  txn->reset();
  return Status::kOk;
}

inline Status GDI_GetTypeOfTransaction(TxnScope* scope_out, TxnMode* mode_out,
                                       const GDI_Transaction& txn) {
  *scope_out = txn->scope();
  *mode_out = txn->mode();
  return Status::kOk;
}

// --- nonblocking operations (async-first surface, gdi/async.hpp) -------------
//
// Spec-style access to the batch engine: start a batch object, enqueue GDI_*Nb
// operations (each returns a typed future through an out-parameter), then
// complete all of them with one GDI_Execute, which overlaps the DHT lookups,
// lock rounds, and block fetches of the whole batch. Futures report their
// per-operation outcome via Future::status() after GDI_Execute returns.

using GDI_Batch = BatchScope;
template <class T>
using GDI_Future = Future<T>;

inline Status GDI_StartBatch(GDI_Batch* batch_out, const GDI_Transaction& txn) {
  *batch_out = txn->batch();
  return Status::kOk;
}

inline Status GDI_TranslateVertexIDNb(GDI_Future<GDI_VertexUid>* f_out,
                                      std::uint64_t vID_app, GDI_Batch& batch) {
  *f_out = batch.translate(vID_app);
  return Status::kOk;
}

inline Status GDI_AssociateVertexNb(GDI_VertexUid vID, GDI_Batch& batch,
                                    GDI_Future<GDI_VertexHolder>* f_out) {
  *f_out = batch.associate(vID);
  return Status::kOk;
}

/// translate + associate + stale-DHT validation in one future.
inline Status GDI_FindVertexNb(GDI_Future<GDI_VertexHolder>* f_out,
                               std::uint64_t vID_app, GDI_Batch& batch) {
  *f_out = batch.find(vID_app);
  return Status::kOk;
}

/// create_vertex whose DHT existence check rides the batch's multi-lookup;
/// the created vertices publish at commit through one DHT insert_many.
inline Status GDI_CreateVertexNb(GDI_Future<GDI_VertexHolder>* f_out,
                                 std::uint64_t vID_app, GDI_Batch& batch) {
  *f_out = batch.create(vID_app);
  return Status::kOk;
}

inline Status GDI_GetEdgesOfVertexNb(GDI_Future<std::vector<EdgeDesc>>* f_out,
                                     DirFilter filter, GDI_VertexHolder vH,
                                     GDI_Batch& batch,
                                     const GDI_Constraint* cnstr = nullptr) {
  *f_out = batch.edges_of(vH, filter, cnstr);
  return Status::kOk;
}

inline Status GDI_GetPropertiesOfVertexNb(GDI_Future<std::vector<PropValue>>* f_out,
                                          GDI_PropertyType pt, GDI_VertexHolder vH,
                                          GDI_Batch& batch) {
  *f_out = batch.get_properties(vH, pt);
  return Status::kOk;
}

inline Status GDI_UpdatePropertyOfVertexNb(GDI_Future<std::monostate>* f_out,
                                           const PropValue& value, GDI_PropertyType pt,
                                           GDI_VertexHolder vH, GDI_Batch& batch) {
  *f_out = batch.set_property(vH, pt, value);
  return Status::kOk;
}

/// Heavy-edge ops: all edge holders of one batch (these plus the heavy edges
/// behind constraint-filtered GDI_GetEdgesOfVertexNb) resolve through one
/// overlapped lock round and one block round (Transaction::fetch_batch).
inline Status GDI_AssociateEdgeNb(GDI_Future<GDI_EdgeHolder>* f_out, DPtr eID,
                                  GDI_Batch& batch) {
  *f_out = batch.associate_edge(eID);
  return Status::kOk;
}

inline Status GDI_GetPropertiesOfEdgeNb(GDI_Future<std::vector<PropValue>>* f_out,
                                        GDI_PropertyType pt, GDI_EdgeHolder eH,
                                        GDI_Batch& batch) {
  *f_out = batch.get_edge_properties(eH, pt);
  return Status::kOk;
}

/// Completion point: resolves every future enqueued on the batch. Returns kOk
/// (per-operation soft failures are reported only on their futures) or the
/// transaction-critical error that doomed the transaction.
inline Status GDI_Execute(GDI_Batch& batch) { return batch.execute(); }

// --- graph data: vertices --------------------------------------------------------

inline Status GDI_CreateVertex(GDI_VertexHolder* vH_out, std::uint64_t app_id,
                               const GDI_Transaction& txn) {
  auto r = txn->create_vertex(app_id);
  if (!r.ok()) return r.status();
  *vH_out = *r;
  return Status::kOk;
}

inline Status GDI_TranslateVertexID(GDI_VertexUid* vID_out, std::uint64_t vID_app,
                                    const GDI_Transaction& txn) {
  auto r = txn->translate_vertex_id(vID_app);
  if (!r.ok()) return r.status();
  *vID_out = *r;
  return Status::kOk;
}

inline Status GDI_AssociateVertex(GDI_VertexUid vID, const GDI_Transaction& txn,
                                  GDI_VertexHolder* vH_out) {
  auto r = txn->associate_vertex(vID);
  if (!r.ok()) return r.status();
  *vH_out = *r;
  return Status::kOk;
}

inline Status GDI_FreeVertex(GDI_VertexHolder vH, const GDI_Transaction& txn) {
  return txn->delete_vertex(vH);
}

inline Status GDI_AddLabelToVertex(GDI_Label label, GDI_VertexHolder vH,
                                   const GDI_Transaction& txn) {
  return txn->add_label(vH, label);
}

inline Status GDI_RemoveLabelFromVertex(GDI_Label label, GDI_VertexHolder vH,
                                        const GDI_Transaction& txn) {
  return txn->remove_label(vH, label);
}

inline Status GDI_GetAllLabelsOfVertex(std::vector<GDI_Label>* labels_out,
                                       GDI_VertexHolder vH,
                                       const GDI_Transaction& txn) {
  auto r = txn->labels_of(vH);
  if (!r.ok()) return r.status();
  *labels_out = *r;
  return Status::kOk;
}

inline Status GDI_AddPropertyToVertex(const PropValue& value, GDI_PropertyType pt,
                                      GDI_VertexHolder vH, const GDI_Transaction& txn) {
  return txn->add_property(vH, pt, value);
}

inline Status GDI_UpdatePropertyOfVertex(const PropValue& value, GDI_PropertyType pt,
                                         GDI_VertexHolder vH,
                                         const GDI_Transaction& txn) {
  return txn->update_property(vH, pt, value);
}

inline Status GDI_GetPropertiesOfVertex(std::vector<PropValue>* values_out,
                                        GDI_PropertyType pt, GDI_VertexHolder vH,
                                        const GDI_Transaction& txn) {
  auto r = txn->get_properties(vH, pt);
  if (!r.ok()) return r.status();
  *values_out = *r;
  return Status::kOk;
}

inline Status GDI_RemovePropertiesFromVertex(GDI_PropertyType pt, GDI_VertexHolder vH,
                                             const GDI_Transaction& txn) {
  return txn->remove_properties(vH, pt);
}

inline Status GDI_GetAllPropertyTypesOfVertex(std::vector<GDI_PropertyType>* out,
                                              GDI_VertexHolder vH,
                                              const GDI_Transaction& txn) {
  auto r = txn->ptypes_of(vH);
  if (!r.ok()) return r.status();
  *out = *r;
  return Status::kOk;
}

// --- graph data: edges ------------------------------------------------------------

inline Status GDI_CreateEdge(GDI_EdgeUid* eID_out, layout::Dir dir,
                             GDI_VertexHolder origin, GDI_VertexHolder target,
                             const GDI_Transaction& txn, GDI_Label label = 0) {
  auto r = txn->create_edge(origin, target, dir, label);
  if (!r.ok()) return r.status();
  *eID_out = *r;
  return Status::kOk;
}

inline Status GDI_FreeEdge(GDI_VertexHolder base, const GDI_EdgeUid& eID,
                           const GDI_Transaction& txn) {
  return txn->delete_edge(base, eID);
}

inline Status GDI_GetEdgesOfVertex(std::vector<EdgeDesc>* edges_out, DirFilter filter,
                                   GDI_VertexHolder vH, const GDI_Transaction& txn,
                                   const GDI_Constraint* cnstr = nullptr) {
  auto r = txn->edges_of(vH, filter, cnstr);
  if (!r.ok()) return r.status();
  *edges_out = *r;
  return Status::kOk;
}

inline Status GDI_GetNeighborVerticesOfVertex(std::vector<GDI_VertexUid>* nIDs_out,
                                              DirFilter filter, GDI_VertexHolder vH,
                                              const GDI_Transaction& txn,
                                              const GDI_Constraint* cnstr = nullptr) {
  auto r = txn->neighbors_of(vH, filter, cnstr);
  if (!r.ok()) return r.status();
  *nIDs_out = *r;
  return Status::kOk;
}

/// "Get vertices adjacent to an edge": both endpoints of a heavy edge.
inline Status GDI_GetVerticesOfEdge(GDI_VertexUid* origin_out,
                                    GDI_VertexUid* target_out, GDI_EdgeHolder eH,
                                    const GDI_Transaction& txn) {
  auto r = txn->edge_endpoints(eH);
  if (!r.ok()) return r.status();
  *origin_out = r->first;
  *target_out = r->second;
  return Status::kOk;
}

inline Status GDI_AssociateEdge(DPtr eID, const GDI_Transaction& txn,
                                GDI_EdgeHolder* eH_out) {
  auto r = txn->associate_edge(eID);
  if (!r.ok()) return r.status();
  *eH_out = *r;
  return Status::kOk;
}

inline Status GDI_GetAllLabelsOfEdge(std::vector<GDI_Label>* labels_out,
                                     GDI_EdgeHolder eH, const GDI_Transaction& txn) {
  auto r = txn->edge_labels_of(eH);
  if (!r.ok()) return r.status();
  *labels_out = *r;
  return Status::kOk;
}

inline Status GDI_AddPropertyToEdge(const PropValue& value, GDI_PropertyType pt,
                                    GDI_EdgeHolder eH, const GDI_Transaction& txn) {
  return txn->add_edge_property(eH, pt, value);
}

inline Status GDI_GetPropertiesOfEdge(std::vector<PropValue>* values_out,
                                      GDI_PropertyType pt, GDI_EdgeHolder eH,
                                      const GDI_Transaction& txn) {
  auto r = txn->get_edge_properties(eH, pt);
  if (!r.ok()) return r.status();
  *values_out = *r;
  return Status::kOk;
}

// --- indexes ------------------------------------------------------------------------

inline Status GDI_CreateIndex(GDI_Index* index_out, const IndexDef& def,
                              rma::Rank& rank, const GDI_Database& db) {
  *index_out = db->create_index(rank, def);
  return Status::kOk;
}

inline Status GDI_GetLocalVerticesOfIndex(std::vector<GDI_VertexUid>* vIDs_out,
                                          const GDI_Index& index,
                                          const GDI_Transaction& txn,
                                          const GDI_Constraint* cnstr = nullptr) {
  auto r = txn->local_index_vertices(*index, cnstr);
  if (!r.ok()) return r.status();
  *vIDs_out = *r;
  return Status::kOk;
}

inline Status GDI_GetAllIndexesOfDatabase(std::vector<GDI_Index>* out,
                                          const GDI_Database& db) {
  *out = db->indexes();
  return Status::kOk;
}

// --- errors --------------------------------------------------------------------------

inline Status GDI_GetErrorName(std::string* name_out, Status code) {
  *name_out = std::string(to_string(code));
  return Status::kOk;
}

inline bool GDI_IsTransactionCritical(Status code) {
  return is_transaction_critical(code);
}

}  // namespace gdi::spec
